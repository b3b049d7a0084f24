package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"projpush/internal/server"
)

// A short run of each workload answers everything correctly.
func TestWorkloadsAnswerCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the serving stacks")
	}
	for _, name := range workloadNames {
		res, err := runWorkload(name, 7, 200*time.Millisecond, "", nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %+v", name, res)
		}
	}
}

// Every kind of wrong answer fails the run: a changed value, a lost
// row, and answers that break the checked properties.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	cases := map[string]func(*request, *server.Response){
		"changed value": func(_ *request, r *server.Response) {
			if a := r.Answer; a != nil && len(a.Tuples) > 0 {
				a.Tuples[len(a.Tuples)-1][0] += 7
			}
		},
		"lost row": func(_ *request, r *server.Response) {
			if a := r.Answer; a != nil && len(a.Tuples) > 0 {
				a.Tuples = a.Tuples[1:]
				a.Rows--
				a.Nonempty = a.Rows > 0
			}
		},
		"unsorted": func(_ *request, r *server.Response) {
			if a := r.Answer; a != nil && len(a.Tuples) > 1 {
				a.Tuples[0], a.Tuples[1] = a.Tuples[1], a.Tuples[0]
			}
		},
		"over AGM bound": func(_ *request, r *server.Response) {
			if r.Verdict != nil && r.Answer != nil && r.Answer.Rows > 0 {
				r.Verdict.AGMLog2 = 0
			}
		},
		"wider than plan": func(_ *request, r *server.Response) {
			if r.Stats != nil {
				r.Stats.MaxArity = 1000
			}
		},
		"failover": func(_ *request, r *server.Response) { r.Failovers = 1 },
	}
	for name, mutate := range cases {
		res, err := runWorkload("paper-3color", 3, 50*time.Millisecond, "", mutate)
		if !errors.Is(err, errWrong) {
			t.Errorf("%s: run error %v, want a wrong answer", name, err)
			continue
		}
		if res.Correct {
			t.Errorf("%s: result says correct", name)
		}
	}
}

// A wrong answer to a request whose tuples are fresh each round is
// caught by the check after the pass.
func TestWrongShadowedAnswerFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet")
	}
	w, err := newWorkload("fleet-cached", 3)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w}
	b.prepare()
	if _, err := b.setUp(1); err != nil {
		t.Fatal(err)
	}
	defer b.st.stop()
	b.mutate = func(r *request, resp *server.Response) {
		if a := resp.Answer; strings.HasSuffix(r.class, "/shadowed") && a != nil && len(a.Tuples) > 0 {
			a.Tuples = a.Tuples[1:]
			a.Rows--
		}
	}
	if _, err := b.run(time.Millisecond); err != nil {
		t.Fatalf("pass: %v", err)
	}
	if err := b.checkShadowed(); !errors.Is(err, errWrong) {
		t.Fatalf("shadowed check: %v, want a wrong answer", err)
	}
}

// The p95 is taken per window of whole rounds, each window at least
// windowRequests long, and the median of the windows' p95 is reported.
func TestWindowP95(t *testing.T) {
	var rounds [][]time.Duration
	for i := 0; i < 10; i++ {
		r := make([]time.Duration, windowRequests/4)
		for j := range r {
			r[j] = time.Duration(i) * time.Millisecond
		}
		rounds = append(rounds, r)
	}
	// Windows are rounds 0–3 and 4–7 (p95 3 ms and 7 ms); rounds 8–9 do
	// not fill a window.
	if got := windowP95(rounds); got != 5 {
		t.Errorf("windowP95 = %v ms, want 5", got)
	}
}
