package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"projpush/internal/server"
)

// answered reports whether a response counts as answered: anything else
// is a failed request, not a wrong answer.
func answered(resp *server.Response) bool {
	return resp != nil && (resp.Status == server.StatusOK || resp.Status == server.StatusDegraded)
}

// route names the executor the server chose: one of the execution
// strategies, or "plan" for the default plan executor.
func route(v *server.Verdict) string {
	switch v.Method {
	case "yannakakis", "stream", "wcoj":
		return v.Method
	}
	return "plan"
}

// checkAnswer verifies the properties every answered response must have
// and returns its rows in head order, sorted:
//   - the answer's schema is the head, and its rows are sorted and
//     distinct (the wire promises sorted order);
//   - the row count is within the AGM output bound 2^Verdict.AGMLog2;
//   - on a plan route answered without degradation, no intermediate is
//     wider than the plan's width (Theorems 1–2 make width the cost);
//   - a fleet answer came from its first replica, with no failover and
//     no hedge, since the fleet under test is healthy.
func checkAnswer(r *request, resp *server.Response) ([][]int32, error) {
	a, v := resp.Answer, resp.Verdict
	if a == nil || v == nil {
		return nil, fmt.Errorf("answered response without answer or verdict")
	}
	if len(a.Attrs) != len(r.head) {
		return nil, fmt.Errorf("answer arity %d, want %d free variables", len(a.Attrs), len(r.head))
	}
	if a.Rows != len(a.Tuples) || a.Nonempty != (a.Rows > 0) {
		return nil, fmt.Errorf("answer says %d rows (nonempty=%v) but carries %d", a.Rows, a.Nonempty, len(a.Tuples))
	}
	pos := map[string]int{}
	for i, h := range r.head {
		pos[h] = i
	}
	perm := make([]int, len(a.Attrs)) // answer column -> head position
	identity := true
	used := make([]bool, len(r.head))
	for j, id := range a.Attrs {
		if id < 0 || id >= len(r.names) {
			return nil, fmt.Errorf("answer attribute %d is no query variable", id)
		}
		p, ok := pos[r.names[id]]
		if !ok || used[p] {
			return nil, fmt.Errorf("answer attribute %d (%s) is not a distinct free variable", id, r.names[id])
		}
		used[p] = true
		perm[j] = p
		identity = identity && p == j
	}
	for i, t := range a.Tuples {
		if len(t) != len(a.Attrs) {
			return nil, fmt.Errorf("row %d has %d values, want %d", i, len(t), len(a.Attrs))
		}
		if i > 0 && !lessRow(a.Tuples[i-1], t) {
			return nil, fmt.Errorf("rows %d and %d are out of order or repeated: %v, %v", i-1, i, a.Tuples[i-1], t)
		}
	}
	if bound := math.Exp2(v.AGMLog2); float64(a.Rows) > bound*(1+1e-9) {
		return nil, fmt.Errorf("%d rows exceed the AGM bound 2^%.3f = %.0f", a.Rows, v.AGMLog2, bound)
	}
	if route(v) == "plan" && resp.Status == server.StatusOK && resp.Stats != nil && resp.Stats.MaxArity > v.PlanWidth {
		return nil, fmt.Errorf("intermediate arity %d exceeds plan width %d (%s)", resp.Stats.MaxArity, v.PlanWidth, v.Method)
	}
	if resp.Failovers != 0 || resp.Hedged {
		return nil, fmt.Errorf("healthy fleet answered after %d failovers (hedged=%v)", resp.Failovers, resp.Hedged)
	}
	if identity {
		return a.Tuples, nil
	}
	rows := make([][]int32, len(a.Tuples))
	for i, t := range a.Tuples {
		row := make([]int32, len(t))
		for j, x := range t {
			row[perm[j]] = x
		}
		rows[i] = row
	}
	sortRows(rows)
	return rows, nil
}

// digest hashes rows in order.
func digest(rows [][]int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, r := range rows {
		for _, x := range r {
			buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// firstDiff describes the first row where two sorted row sets differ.
func firstDiff(want, got [][]int32) string {
	i := 0
	for i < len(want) && i < len(got) && !lessRow(want[i], got[i]) && !lessRow(got[i], want[i]) {
		i++
	}
	switch {
	case i < len(want) && i < len(got):
		return fmt.Sprintf("row %d: want %v, got %v (%d rows wanted, %d got)", i, want[i], got[i], len(want), len(got))
	case i < len(want):
		return fmt.Sprintf("row %d: want %v, got nothing (%d rows wanted, %d got)", i, want[i], len(want), len(got))
	case i < len(got):
		return fmt.Sprintf("row %d: want nothing, got %v (%d rows wanted, %d got)", i, got[i], len(want), len(got))
	}
	return "rows equal"
}
