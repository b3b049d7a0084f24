package main

// Correctness references. They share no code with internal/engine or
// internal/relation: the 3-COLOR reference is a backtracking search over
// the graph, and the resident-database reference evaluates the four query
// shapes directly over the generated tuple lists. Every served answer is
// compared against them.

import (
	"sort"
)

// pair is one tuple of a binary relation.
type pair struct{ a, b int32 }

// colorRestrictions returns the set of restrictions of proper 3-colorings
// of the graph (n vertices, undirected edges) to the free vertices, as
// rows in free order, sorted and distinct. It is empty exactly when the
// graph is not 3-colorable. Each free assignment is enumerated in
// lexicographic order and kept when a backtracking search colors the
// other vertices consistently with it.
func colorRestrictions(n int, edges [][2]int, free []int) [][]int32 {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	// The other vertices are colored in breadth-first order from the free
	// ones, so each meets colored neighbours early. pos[v] is v's place in
	// that order, -1 for a free vertex (colored before the search).
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -2
	}
	for _, v := range free {
		pos[v] = -1
	}
	var order []int
	for _, s := range append(append([]int(nil), free...), seq(n)...) {
		if pos[s] >= 0 {
			continue
		}
		queue := []int{s}
		if pos[s] == -2 {
			pos[s] = len(order)
			order = append(order, s)
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range adj[v] {
				if pos[u] == -2 {
					pos[u] = len(order)
					order = append(order, u)
					queue = append(queue, u)
				}
			}
		}
	}
	// boundary[i] lists the vertices colored before step i that still
	// have an uncolored neighbour: together with i, their colors are all
	// the rest of the search depends on, so a failed state is remembered.
	last := make([]int, n)
	for v := range last {
		last[v] = -1
		for _, u := range adj[v] {
			last[v] = max(last[v], pos[u])
		}
	}
	boundary := make([][]int, len(order)+1)
	for i := range boundary {
		for v := 0; v < n; v++ {
			if pos[v] < i && last[v] >= i {
				boundary[i] = append(boundary[i], v)
			}
		}
	}
	color := make([]int8, n)
	for i := range color {
		color[i] = -1
	}
	avail := func(v int) int {
		m := 7
		for _, u := range adj[v] {
			if color[u] >= 0 {
				m &^= 1 << color[u]
			}
		}
		return m
	}
	var failed map[string]bool
	key := make([]byte, 0, 64)
	var extend func(i int) bool
	extend = func(i int) bool {
		if i == len(order) {
			return true
		}
		key = append(key[:0], byte(i), byte(i>>8))
		for _, v := range boundary[i] {
			key = append(key, byte(color[v]))
		}
		if failed[string(key)] {
			return false
		}
		state := string(key)
		v, a := order[i], avail(order[i])
		for c := int8(0); c < 3; c++ {
			if a&(1<<c) != 0 {
				color[v] = c
				ok := extend(i + 1)
				color[v] = -1
				if ok {
					return true
				}
			}
		}
		failed[state] = true
		return false
	}
	var rows [][]int32
	var assign func(i int)
	assign = func(i int) {
		if i == len(free) {
			failed = map[string]bool{}
			if extend(0) {
				row := make([]int32, len(free))
				for j, v := range free {
					row[j] = int32(color[v])
				}
				rows = append(rows, row)
			}
			return
		}
		v := free[i]
		for c := int8(0); c < 3; c++ {
			if avail(v)&(1<<c) != 0 {
				color[v] = c
				assign(i + 1)
				color[v] = -1
			}
		}
	}
	assign(0)
	return rows
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// adjacency is a binary relation indexed by its first column: the
// second-column values of the tuples whose first column is v are
// dst[off[v]:off[v+1]], sorted and distinct.
type adjacency struct {
	off []int32
	dst []int32
}

// newAdjacency indexes pairs over first-column values in [0, domain).
func newAdjacency(pairs []pair, domain int32) adjacency {
	off := make([]int32, domain+1)
	for _, p := range pairs {
		off[p.a+1]++
	}
	for i := int32(1); i <= domain; i++ {
		off[i] += off[i-1]
	}
	dst := make([]int32, len(pairs))
	fill := append([]int32(nil), off[:domain]...)
	for _, p := range pairs {
		dst[fill[p.a]] = p.b
		fill[p.a]++
	}
	a := adjacency{off: off, dst: dst}
	for v := int32(0); v < domain; v++ {
		s := a.next(v)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	// Deduplicate in place: generated relations are sets, but a request
	// rel block may repeat a tuple.
	w := int32(0)
	for v := int32(0); v < domain; v++ {
		lo, hi := a.off[v], a.off[v+1]
		a.off[v] = w
		for i := lo; i < hi; i++ {
			if i == lo || a.dst[i] != a.dst[i-1] {
				a.dst[w] = a.dst[i]
				w++
			}
		}
	}
	a.off[domain] = w
	a.dst = a.dst[:w]
	return a
}

func (a adjacency) next(v int32) []int32 {
	if v < 0 || int(v)+1 >= len(a.off) {
		return nil
	}
	return a.dst[a.off[v]:a.off[v+1]]
}

func (a adjacency) has(u, v int32) bool {
	s := a.next(u)
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// chainAnswer evaluates ans(x0, xk) :- r0(x0,x1), ..., r(k-1)(x(k-1),xk):
// the pairs (head start, end) joined by a path through the relations in
// order. rels[0] is the head relation, given as tuples; the rest are
// indexed.
func chainAnswer(head []pair, rest []adjacency) [][]int32 {
	starts := map[int32][]int32{}
	for _, p := range head {
		starts[p.a] = append(starts[p.a], p.b)
	}
	var rows [][]int32
	for x0, frontier := range starts {
		cur := uniq(frontier)
		for _, r := range rest {
			var nxt []int32
			for _, v := range cur {
				nxt = append(nxt, r.next(v)...)
			}
			cur = uniq(nxt)
		}
		for _, xk := range cur {
			rows = append(rows, []int32{x0, xk})
		}
	}
	sortRows(rows)
	return rows
}

// spiderAnswer evaluates the star s0(h,a0), s1(h,a1), ..., s(k-1)(h,a(k-1))
// projected onto the given columns, where column 0 is the hub h and
// column i+1 is arm leaf ai. arms[i] is arm i indexed by hub.
func spiderAnswer(arms []adjacency, hubDomain int32, cols []int) [][]int32 {
	seen := map[[2]int32]bool{}
	var rows [][]int32
	for h := int32(0); h < hubDomain; h++ {
		live := true
		for _, a := range arms {
			if len(a.next(h)) == 0 {
				live = false
				break
			}
		}
		if !live {
			continue
		}
		// Every combination of leaves is a join row; the projection keeps
		// at most two columns, so enumerate those.
		var emit func(i int, row []int32)
		emit = func(i int, row []int32) {
			if i == len(cols) {
				var k [2]int32
				copy(k[:], row)
				if !seen[k] {
					seen[k] = true
					rows = append(rows, append([]int32(nil), row...))
				}
				return
			}
			if cols[i] == 0 {
				emit(i+1, append(row, h))
				return
			}
			for _, leaf := range arms[cols[i]-1].next(h) {
				emit(i+1, append(row, leaf))
			}
		}
		emit(0, nil)
	}
	sortRows(rows)
	return rows
}

// triangleAnswer evaluates ans(x,y,z) :- e(x,y), e(y,z), e(z,x).
func triangleAnswer(e adjacency, domain int32) [][]int32 {
	var rows [][]int32
	for x := int32(0); x < domain; x++ {
		for _, y := range e.next(x) {
			for _, z := range e.next(y) {
				if e.has(z, x) {
					rows = append(rows, []int32{x, y, z})
				}
			}
		}
	}
	sortRows(rows)
	return rows
}

// fourCycleAnswer evaluates ans(x) :- e(x,y), e(y,z), e(z,w), e(w,x): the
// vertices on a directed closed walk of length four.
func fourCycleAnswer(e adjacency, domain int32) [][]int32 {
	in := make([][]int32, domain)
	for u := int32(0); u < domain; u++ {
		for _, v := range e.next(u) {
			in[v] = append(in[v], u)
		}
	}
	// mark[w] == x+1 when w→x is an edge, for the x being examined.
	mark := make([]int32, domain)
	var rows [][]int32
	for x := int32(0); x < domain; x++ {
		for _, w := range in[x] {
			mark[w] = x + 1
		}
		found := false
		for _, y := range e.next(x) {
			for _, z := range e.next(y) {
				for _, w := range e.next(z) {
					if mark[w] == x+1 {
						found = true
						break
					}
				}
				if found {
					break
				}
			}
			if found {
				break
			}
		}
		if found {
			rows = append(rows, []int32{x})
		}
	}
	return rows
}

func uniq(s []int32) []int32 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	w := 0
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			s[w] = v
			w++
		}
	}
	return s[:w]
}

func sortRows(rows [][]int32) {
	sort.Slice(rows, func(i, j int) bool { return lessRow(rows[i], rows[j]) })
}

func lessRow(a, b []int32) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}
