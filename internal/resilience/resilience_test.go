package resilience

import (
	"context"
	"reflect"
	"testing"

	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/graph"
	"projpush/internal/instance"
)

// colorQuery is the Boolean-emulating 3-COLOR query of g.
func colorQuery(t *testing.T, g *graph.Graph) *cq.Query {
	t.Helper()
	q, err := instance.ColorQuery(g, instance.BooleanFree(g))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func names(rungs []engine.Fallback) []string {
	out := make([]string, len(rungs))
	for i, r := range rungs {
		out[i] = r.Name
	}
	return out
}

// runRung executes one rung the way engine.ExecResilientStrategy does:
// Run when set, otherwise Build's plan on the sequential executor.
func runRung(t *testing.T, r engine.Fallback, db cq.Database) *engine.Result {
	t.Helper()
	if r.Run != nil {
		res, err := r.Run(context.Background(), db, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		return res
	}
	p, err := r.Build()
	if err != nil {
		t.Fatalf("%s: plan: %v", r.Name, err)
	}
	res, err := engine.Exec(p, db, engine.Options{})
	if err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	return res
}

func TestLadderRungNamesAndOrder(t *testing.T) {
	narrow := colorQuery(t, graph.AugmentedPath(8)) // Figure 6
	wide := colorQuery(t, graph.Complete(6))        // MCS width 5
	if w := engine.MCSElimWidth(wide); w <= engine.DefaultYannakakisWidth {
		t.Fatalf("K6 elimination width %d does not exceed the Yannakakis threshold", w)
	}
	if w := engine.MCSElimWidth(narrow); w > engine.DefaultYannakakisWidth {
		t.Fatalf("augmented path elimination width %d exceeds the Yannakakis threshold", w)
	}
	plans := []string{"earlyprojection", "bucketelimination"}
	for _, tc := range []struct {
		name  string
		rungs []engine.Fallback
		want  []string
	}{
		{"DegradationLadder/narrow", DegradationLadder(narrow, nil), append([]string{"yannakakis", "stream"}, plans...)},
		{"DegradationLadder/wide", DegradationLadder(wide, nil), append([]string{"wcoj", "stream"}, plans...)},
		{"PlanLadder", PlanLadder(narrow, nil), plans},
		{"YannakakisRung", []engine.Fallback{YannakakisRung(narrow)}, []string{"yannakakis"}},
		{"StreamRung", []engine.Fallback{StreamRung(narrow)}, []string{"stream"}},
		{"WCOJRung", []engine.Fallback{WCOJRung(narrow)}, []string{"wcoj"}},
	} {
		if got := names(tc.rungs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: rungs %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEveryRungMatchesOracle runs each rung alone on Figure 6's
// augmented-path 3-COLOR query, with one and with all variables free,
// and checks its answer against engine.EvalOracle.
func TestEveryRungMatchesOracle(t *testing.T) {
	g := graph.AugmentedPath(6)
	db := instance.ColorDatabase(3)
	for _, free := range [][]cq.Var{instance.BooleanFree(g), instance.EdgeVertices(g)} {
		q, err := instance.ColorQuery(g, free)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.EvalOracle(q, db)
		if err != nil {
			t.Fatal(err)
		}
		rungs := append(DegradationLadder(q, nil), WCOJRung(q))
		for _, r := range rungs {
			res := runRung(t, r, db)
			if !want.Equal(res.Rel) {
				t.Errorf("%s with %d free: %d rows, oracle %d", r.Name, len(free), res.Rel.Len(), want.Len())
			}
		}
	}
}
