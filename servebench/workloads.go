package main

import (
	"fmt"
	"math/rand"
	"strings"

	"projpush/internal/cq"
	"projpush/internal/graph"
	"projpush/internal/instance"
	"projpush/internal/relation"
	"projpush/internal/server"
)

// request is one distinct query request and what its answer must be.
type request struct {
	// class names the request's query family, target and method, for
	// mismatch reports.
	class string
	req   server.Request
	// head lists the free variables in head order; names lists every
	// variable in order of first appearance, head first, which is how
	// the query parser numbers them, so names[id] is answer attribute
	// id's variable.
	head  []string
	names []string
	// ref computes the reference answer: rows over head, sorted and
	// distinct. It runs outside every timer.
	ref func() [][]int32
}

// workload is one traffic mix: a resident database, the distinct
// requests, and one round of the closed loop.
type workload struct {
	name string
	// fleet serves through a 3-worker in-process fleet instead of a
	// single server; cacheBytes > 0 shares one subplan cache of that
	// budget between the workers.
	fleet      bool
	cacheBytes int64
	// build generates the resident database from the seed. It is part
	// of set-up and runs once per set-up.
	build func() cq.Database
	// pool holds the distinct requests; the warm-up sends each once.
	pool []*request
	// round lists pool indexes in send order; shadowSlot marks a
	// position that sends a fresh request from shadow instead.
	round  []int
	shadow func(round, slot int) *request
}

const shadowSlot = -1

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"paper-3color", "resident-joins", "fleet-cached"}

// cacheMiB is the shared subplan cache budget of fleet-cached, the value
// passed as projpushd -cachemb.
const cacheMiB = 64

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "paper-3color":
		return paper3Color(seed), nil
	case "resident-joins":
		return residentJoins(seed), nil
	case "fleet-cached":
		return fleetCached(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// query renders a query clause over named variables and returns it with
// the variables in first-appearance order, head first.
func query(head []string, atoms [][]string) (string, []string) {
	var b strings.Builder
	fmt.Fprintf(&b, "query ans(%s) :- ", strings.Join(head, ", "))
	names := append([]string(nil), head...)
	seen := map[string]bool{}
	for _, v := range head {
		seen[v] = true
	}
	for i, a := range atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(%s)", a[0], strings.Join(a[1:], ", "))
		for _, v := range a[1:] {
			if !seen[v] {
				seen[v] = true
				names = append(names, v)
			}
		}
	}
	b.WriteString(".\n")
	return b.String(), names
}

// relBlock renders a request-carried relation.
func relBlock(name string, tuples []pair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rel %s {\n", name)
	for _, t := range tuples {
		fmt.Fprintf(&b, "  %d %d\n", t.a, t.b)
	}
	b.WriteString("}\n")
	return b.String()
}

// --- paper-3color ---

// The paper's traffic: 3-COLOR over the Figure 6–9 families and random
// graphs, against the 6-tuple edge relation. The seed draws the free
// vertices and the order of a round; the family orders are fixed, so the
// costliest requests, which set p95, are the same on every seed. The
// random graphs are drawn once, from randomGraphSeed: drawn from the
// run's seed, one G(16, 48) in about five under bucketelimination grew
// the process's peak RSS from 14.5 to 20 MB, a third, on that seed alone. The 20%-free targets stay at orders 5–6 and the random
// graphs at orders 15–16: past them, the draw (where the free vertices
// fall, which graph comes out) moves single requests between a few and
// hundreds of milliseconds, and with them the length of a round.
var (
	familyOrders = []int{8, 12, 16, 20, 24, 28, 32, 36, 40}
	freeOrders   = []int{5, 6}
	families     = []struct {
		name string
		gen  func(int) *graph.Graph
	}{
		{"augpath", graph.AugmentedPath},
		{"ladder", graph.Ladder},
		{"augladder", graph.AugmentedLadder},
		{"augcircladder", graph.AugmentedCircularLadder},
	}
	randomOrders = []int{15, 15, 16, 16}
)

// randomGraphSeed is the seed every run draws its random graphs from.
const randomGraphSeed = 1

func paper3Color(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{
		name:  "paper-3color",
		build: func() cq.Database { return instance.ColorDatabase(3) },
	}
	add := func(name string, g *graph.Graph, free []int, methods []string) {
		ref := colorReference(g, free)
		for _, m := range methods {
			w.pool = append(w.pool, colorRequest(name, g, free, m, ref))
		}
	}
	all := []string{"", "bucketelimination", "earlyprojection"}
	for _, f := range families {
		for _, n := range familyOrders {
			g := f.gen(n)
			add(fmt.Sprintf("%s/%d/boolean", f.name, n), g, instance.BooleanFree(g), all)
		}
		for _, n := range freeOrders {
			if f.name == "augcircladder" {
				// From order 6 on, where the free vertices fall moves
				// earlyprojection and stream on the circular ladder
				// between 2 and 230 ms.
				n = 5
			}
			g := f.gen(n)
			free := instance.ChooseFree(instance.EdgeVertices(g), 0.2, rng)
			add(fmt.Sprintf("%s/%d/free", f.name, n), g, free, all)
		}
	}
	graphs := rand.New(rand.NewSource(randomGraphSeed))
	for _, n := range randomOrders {
		for _, d := range []int{2, 3, 4} {
			g, err := graph.Random(n, d*n, graphs)
			if err != nil {
				panic(err) // d*n edges always fit on n >= 15 vertices
			}
			// earlyprojection on these graphs takes 35–420 ms served, and
			// methodless density-2 graphs route to the stream engine at
			// 6–490 ms depending on the draw; both are left out.
			methods := all[:2]
			if d == 2 {
				methods = all[1:2]
			}
			add(fmt.Sprintf("random/%d/%d/boolean", n, d*n), g, instance.BooleanFree(g), methods)
		}
	}
	w.round = rng.Perm(len(w.pool))
	return w
}

// colorReference computes the restrictions of g's 3-colorings to free
// once, however many requests share them.
func colorReference(g *graph.Graph, free []int) func() [][]int32 {
	n, edges := g.N, append([][2]int(nil), g.Edges...)
	free = append([]int(nil), free...)
	var rows [][]int32
	done := false
	return func() [][]int32 {
		if !done {
			rows, done = colorRestrictions(n, edges, free), true
		}
		return rows
	}
}

// colorRequest is the 3-COLOR query of g with the given free vertices.
func colorRequest(class string, g *graph.Graph, free []int, method string, ref func() [][]int32) *request {
	head := make([]string, len(free))
	for i, v := range free {
		head[i] = fmt.Sprintf("v%d", v)
	}
	atoms := make([][]string, len(g.Edges))
	for i, e := range g.Edges {
		atoms[i] = []string{"edge", fmt.Sprintf("v%d", e[0]), fmt.Sprintf("v%d", e[1])}
	}
	text, names := query(head, atoms)
	if method == "" {
		class += "/methodless"
	} else {
		class += "/" + method
	}
	return &request{
		class: class,
		req:   server.Request{Op: "query", Query: text, Method: method},
		head:  head,
		names: names,
		ref:   ref,
	}
}

// --- the resident database of resident-joins and fleet-cached ---

// Sizes of the resident database. Out-degrees are fixed rather than
// drawn, so the work of every query is nearly the same on every seed:
// the chain's 10 heads reach 10·2^7 paths, the spider's selective arm
// has 25 live hubs, and the edge relation holds ~8000 directed
// triangles.
const (
	chainAtoms   = 8
	chainDomain  = 10000
	chainDegree  = 2
	headTuples   = 10
	spiderArms   = 5
	hubDomain    = 10000
	armDegree    = 2
	liveHubs     = 25
	edgeNodes    = 1500
	edgeDegree   = 20
	padRelations = 7
	padTuples    = 40000
	padDomain    = 1 << 20
)

// resident is the generated content of the resident database.
type resident struct {
	chain  [chainAtoms][]pair // c0 is the 10-tuple selective head
	spider [spiderArms][]pair // s0 is the selective arm
	edge   []pair
	pad    [padRelations][]pair
}

func genResident(seed int64) *resident {
	rng := rand.New(rand.NewSource(seed))
	r := &resident{}
	r.chain[0] = headPairs(rng, headTuples)
	for i := 1; i < chainAtoms; i++ {
		r.chain[i] = fixedDegree(rng, chainDomain, chainDomain, chainDegree, false)
	}
	hubs := rng.Perm(hubDomain)[:liveHubs]
	for _, h := range hubs {
		for _, leaf := range distinct(rng, hubDomain, armDegree, -1) {
			r.spider[0] = append(r.spider[0], pair{int32(h), int32(leaf)})
		}
	}
	for i := 1; i < spiderArms; i++ {
		r.spider[i] = fixedDegree(rng, hubDomain, hubDomain, armDegree, false)
	}
	r.edge = fixedDegree(rng, edgeNodes, edgeNodes, edgeDegree, true)
	for i := range r.pad {
		seen := map[pair]bool{}
		for len(r.pad[i]) < padTuples {
			p := pair{rng.Int31n(padDomain), rng.Int31n(padDomain)}
			if !seen[p] {
				seen[p] = true
				r.pad[i] = append(r.pad[i], p)
			}
		}
	}
	return r
}

// headPairs draws n distinct chain-head tuples.
func headPairs(rng *rand.Rand, n int) []pair {
	seen := map[pair]bool{}
	var out []pair
	for len(out) < n {
		p := pair{rng.Int31n(chainDomain), rng.Int31n(chainDomain)}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// fixedDegree gives every source in [0, sources) exactly degree distinct
// targets in [0, targets), never itself when noLoops.
func fixedDegree(rng *rand.Rand, sources, targets, degree int, noLoops bool) []pair {
	out := make([]pair, 0, sources*degree)
	for s := 0; s < sources; s++ {
		skip := -1
		if noLoops {
			skip = s
		}
		for _, t := range distinct(rng, targets, degree, skip) {
			out = append(out, pair{int32(s), int32(t)})
		}
	}
	return out
}

// distinct draws k distinct values in [0, n), none equal to skip.
func distinct(rng *rand.Rand, n, k, skip int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.Intn(n)
		dup := v == skip
		for _, u := range out {
			dup = dup || u == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// database builds the served relations from the generated tuples.
func (r *resident) database() cq.Database {
	db := cq.Database{}
	add := func(name string, tuples []pair) {
		rel := relation.New([]relation.Attr{0, 1})
		for _, t := range tuples {
			rel.Add(relation.Tuple{t.a, t.b})
		}
		db[name] = rel
	}
	for i, t := range r.chain {
		add(fmt.Sprintf("c%d", i), t)
	}
	for i, t := range r.spider {
		add(fmt.Sprintf("s%d", i), t)
	}
	add("e", r.edge)
	for i, t := range r.pad {
		add(fmt.Sprintf("p%d", i), t)
	}
	return db
}

// residentShapes builds the requests over a resident database whose
// tuples gen produces. The references index the tuples lazily, once.
type residentShapes struct {
	gen     func() *resident
	r       *resident
	chainIx []adjacency
	armIx   []adjacency
	edgeIx  adjacency
}

func (s *residentShapes) index() {
	if s.r != nil {
		return
	}
	s.r = s.gen()
	for i := 1; i < chainAtoms; i++ {
		s.chainIx = append(s.chainIx, newAdjacency(s.r.chain[i], chainDomain))
	}
	for i := 0; i < spiderArms; i++ {
		s.armIx = append(s.armIx, newAdjacency(s.r.spider[i], hubDomain))
	}
	s.edgeIx = newAdjacency(s.r.edge, edgeNodes)
}

// chain is ans(x0, xk) over the first k chain atoms; head, when non-nil,
// is sent as a rel block that shadows c0.
func (s *residentShapes) chain(k int, method string, head []pair) *request {
	var atoms [][]string
	for i := 0; i < k; i++ {
		atoms = append(atoms, []string{fmt.Sprintf("c%d", i), fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", i+1)})
	}
	text, names := query([]string{"x0", fmt.Sprintf("x%d", k)}, atoms)
	class := fmt.Sprintf("chain%d/%s", k, methodName(method))
	if head != nil {
		text = relBlock("c0", head) + text
		class += "/shadowed"
	}
	return &request{
		class: class,
		req:   server.Request{Op: "query", Query: text, Method: method},
		head:  names[:2],
		names: names,
		ref: func() [][]int32 {
			s.index()
			h := head
			if h == nil {
				h = s.r.chain[0]
			}
			return chainAnswer(h, s.chainIx[:k-1])
		},
	}
}

// spider is the 5-arm star projected onto cols (0 = hub h, i = leaf a(i-1)).
func (s *residentShapes) spider(cols []int, method string) *request {
	var atoms [][]string
	for i := 0; i < spiderArms; i++ {
		atoms = append(atoms, []string{fmt.Sprintf("s%d", i), "h", fmt.Sprintf("a%d", i)})
	}
	head := make([]string, len(cols))
	for i, c := range cols {
		head[i] = "h"
		if c > 0 {
			head[i] = fmt.Sprintf("a%d", c-1)
		}
	}
	text, names := query(head, atoms)
	return &request{
		class: fmt.Sprintf("spider(%s)/%s", strings.Join(head, ","), methodName(method)),
		req:   server.Request{Op: "query", Query: text, Method: method},
		head:  head,
		names: names,
		ref: func() [][]int32 {
			s.index()
			return spiderAnswer(s.armIx, hubDomain, cols)
		},
	}
}

func (s *residentShapes) triangle(method string) *request {
	text, names := query([]string{"x", "y", "z"}, [][]string{{"e", "x", "y"}, {"e", "y", "z"}, {"e", "z", "x"}})
	return &request{
		class: "triangle/" + methodName(method),
		req:   server.Request{Op: "query", Query: text, Method: method},
		head:  names[:3],
		names: names,
		ref: func() [][]int32 {
			s.index()
			return triangleAnswer(s.edgeIx, edgeNodes)
		},
	}
}

func (s *residentShapes) fourCycle(method string) *request {
	text, names := query([]string{"x"}, [][]string{{"e", "x", "y"}, {"e", "y", "z"}, {"e", "z", "w"}, {"e", "w", "x"}})
	return &request{
		class: "4cycle/" + methodName(method),
		req:   server.Request{Op: "query", Query: text, Method: method},
		head:  names[:1],
		names: names,
		ref: func() [][]int32 {
			s.index()
			return fourCycleAnswer(s.edgeIx, edgeNodes)
		},
	}
}

func methodName(m string) string {
	if m == "" {
		return "methodless"
	}
	return m
}

// residentJoins: executor and kernel work over a ~530k-tuple resident
// database, cache off.
func residentJoins(seed int64) *workload {
	s := &residentShapes{gen: func() *resident { return genResident(seed) }}
	w := &workload{
		name:  "resident-joins",
		build: func() cq.Database { return genResident(seed).database() },
		pool: []*request{
			s.chain(6, "", nil),
			s.chain(7, "", nil),
			s.chain(8, "", nil),
			s.spider([]int{0, 1}, ""),
			s.spider([]int{1, 2}, ""),
			s.triangle("wcoj"),
			s.fourCycle("wcoj"),
			// bucketelimination eliminates the chain from the middle,
			// where intermediates grow as 10k·2^k: the 8-atom chain
			// takes 1.7 s, its 3-atom prefix 20 ms.
			s.chain(3, "bucketelimination", nil),
			s.spider([]int{0, 1}, "stream"),
		},
	}
	// A round sends the chains twice, the methodless spiders three times
	// and the rest once: an eighth of the traffic is the triangle and
	// the 4-cycle, whose answers and leapfrog joins make the latency
	// tail.
	rng := rand.New(rand.NewSource(seed))
	w.round = append(rng.Perm(len(w.pool)), 0, 1, 2, 3, 3, 4, 4)
	rng.Shuffle(len(w.round), func(i, j int) { w.round[i], w.round[j] = w.round[j], w.round[i] })
	return w
}

// fleetCached: the same database behind a 3-worker fleet sharing one
// subplan cache. Each round sends every cached request three times and
// two chain requests whose rel block shadows c0 with fresh tuples, so a
// tenth of the traffic misses and inserts. The shadowed request is the
// costliest to recompute (bucket elimination on the chain), which keeps
// the tenth that sets p95 apart from the rest.
func fleetCached(seed int64) *workload {
	s := &residentShapes{gen: func() *resident { return genResident(seed) }}
	w := &workload{
		name:       "fleet-cached",
		fleet:      true,
		cacheBytes: cacheMiB << 20,
		build:      func() cq.Database { return genResident(seed).database() },
		pool: []*request{
			s.chain(3, "bucketelimination", nil),
			s.chain(8, "earlyprojection", nil),
			s.chain(8, "stream", nil),
			s.spider([]int{0, 1}, "stream"),
			s.spider([]int{1, 2}, "bucketelimination"),
			s.spider([]int{0, 1}, "earlyprojection"),
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for rep := 0; rep < 3; rep++ {
		w.round = append(w.round, rng.Perm(len(w.pool))...)
	}
	w.round = append(w.round, shadowSlot, shadowSlot)
	rng.Shuffle(len(w.round), func(i, j int) { w.round[i], w.round[j] = w.round[j], w.round[i] })
	w.shadow = func(round, slot int) *request {
		// Fresh head tuples per (seed, round, slot): every shadowed
		// request misses the cache, and a rerun sends the same ones.
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(round)*64 + int64(slot) + 1))
		return s.chain(3, "bucketelimination", headPairs(r, headTuples))
	}
	return w
}
