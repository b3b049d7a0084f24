package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"projpush/internal/cq"
	"projpush/internal/cqparse"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// chainDB builds the resident database of the soundness tests: three
// binary relations c0, c1, c2 forming a layered chain, with c0 a small
// selective head.
func chainDB() cq.Database {
	db := cq.Database{}
	for i, n := range []int{3, 12, 12} {
		r := relation.New([]relation.Attr{0, 1})
		for v := 0; v < n; v++ {
			r.Add(relation.Tuple{relation.Value(v), relation.Value((v*5 + i) % 12)})
			r.Add(relation.Tuple{relation.Value(v), relation.Value((v*7 + 1) % 12)})
		}
		db[fmt.Sprintf("c%d", i)] = r
	}
	return db
}

// chainQuery is ans(x0, x3) :- c0(x0,x1), c1(x1,x2), c2(x2,x3).
func chainQuery() *cq.Query {
	return &cq.Query{
		Atoms: []cq.Atom{
			{Rel: "c0", Args: []cq.Var{0, 1}},
			{Rel: "c1", Args: []cq.Var{1, 2}},
			{Rel: "c2", Args: []cq.Var{2, 3}},
		},
		Free: []cq.Var{0, 3},
	}
}

// chainPlan is π{x0,x3}(c0(x0,x1) ⋈ π{x1,x3}(c1(x1,x2) ⋈ c2(x2,x3))): the
// right subtree does not read c0.
func chainPlan() plan.Node {
	q := chainQuery()
	scan := func(i int) plan.Node { return &plan.Scan{Atom: q.Atoms[i]} }
	tail := &plan.Project{Cols: []cq.Var{1, 3}, Child: &plan.Join{Left: scan(1), Right: scan(2)}}
	return &plan.Project{Cols: []cq.Var{0, 3}, Child: &plan.Join{Left: scan(0), Right: tail}}
}

// cachedRun executes p with cache c on the named executor.
func cachedRun(t *testing.T, executor string, p plan.Node, db cq.Database, c *Cache) *Result {
	t.Helper()
	var res *Result
	var err error
	opt := Options{Cache: c}
	switch executor {
	case "sequential":
		res, err = Exec(p, db, opt)
	case "parallel":
		res, err = ExecParallel(p, db, opt, 2)
	case "stream":
		res, err = ExecStreamContext(context.Background(), p, db, opt)
	default:
		t.Fatalf("unknown executor %q", executor)
	}
	if err != nil {
		t.Fatalf("%s: %v", executor, err)
	}
	return res
}

// mustMatchOracle fails unless res equals EvalOracle(q, db).
func mustMatchOracle(t *testing.T, label string, q *cq.Query, db cq.Database, res *Result) {
	t.Helper()
	want, err := EvalOracle(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(res.Rel) {
		t.Fatalf("%s: answer %v, oracle %v", label, res.Rel, want)
	}
}

var soundnessExecutors = []string{"sequential", "parallel", "stream"}

// TestCacheMissesAfterAdd mutates a resident relation after a cached
// run: the next run must miss and answer over the new contents.
func TestCacheMissesAfterAdd(t *testing.T) {
	for _, ex := range soundnessExecutors {
		t.Run(ex, func(t *testing.T) {
			db, q, p, c := chainDB(), chainQuery(), chainPlan(), NewCache(0)
			cachedRun(t, ex, p, db, c)
			warm := cachedRun(t, ex, p, db, c)
			if warm.Stats.CacheMisses != 0 {
				t.Fatalf("warm run before the insert: %d misses, want 0", warm.Stats.CacheMisses)
			}
			before := warm.Rel.Len()
			// A fresh head value reaching a fresh c1 row: a new answer.
			db["c0"].Add(relation.Tuple{11, 11})
			db["c1"].Add(relation.Tuple{11, 0})
			res := cachedRun(t, ex, p, db, c)
			if res.Stats.CacheMisses == 0 {
				t.Fatalf("run after the insert hit a stale entry (hits=%d)", res.Stats.CacheHits)
			}
			mustMatchOracle(t, "after insert", q, db, res)
			if res.Rel.Len() <= before {
				t.Fatalf("insert did not change the answer (%d rows, was %d)", res.Rel.Len(), before)
			}
		})
	}
}

// TestCacheMissesAfterInPlaceSemijoin compacts a private relation in
// place with SemijoinFilter after its digest was memoized: the digest
// must change, and a run must miss the entries a database with the old
// contents stored and answer over the reduced contents.
func TestCacheMissesAfterInPlaceSemijoin(t *testing.T) {
	q, p, c := chainQuery(), chainPlan(), NewCache(0)
	cachedRun(t, "sequential", p, chainDB(), c)
	// A second, never-scanned copy keeps its storage private, so the
	// filter below compacts it in place.
	db := chainDB()
	c0 := db["c0"]
	d := c0.ContentDigest()
	keep := relation.FromTuples([]relation.Attr{0}, []relation.Tuple{{0}})
	out, removed, err := relation.SemijoinFilter(c0, keep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != c0 || removed == 0 {
		t.Fatalf("want an in-place compaction of a private relation (same=%v removed=%d)", out == c0, removed)
	}
	if c0.ContentDigest() == d {
		t.Fatal("in-place SemijoinFilter left the content digest unchanged")
	}
	res := cachedRun(t, "sequential", p, db, c)
	if res.Stats.CacheHits != 1 || res.Stats.CacheMisses != 2 {
		t.Fatalf("hits=%d misses=%d, want only the c0-free subtree to hit (1/2)",
			res.Stats.CacheHits, res.Stats.CacheMisses)
	}
	mustMatchOracle(t, "after semijoin", q, db, res)
}

// TestCacheSharesEqualContents builds the same database twice: equal
// contents must digest equally, so the second database hits the first
// one's entries.
func TestCacheSharesEqualContents(t *testing.T) {
	a, b := chainDB(), chainDB()
	for name := range a {
		if a[name] == b[name] {
			t.Fatal("chainDB must build fresh relations")
		}
		if a[name].ContentDigest() != b[name].ContentDigest() {
			t.Fatalf("%s: equal contents, different digests", name)
		}
	}
	if DatabaseFingerprint(a) != DatabaseFingerprint(b) {
		t.Fatal("equal databases, different fingerprints")
	}
	for _, ex := range soundnessExecutors {
		c := NewCache(0)
		cachedRun(t, ex, chainPlan(), a, c)
		res := cachedRun(t, ex, chainPlan(), b, c)
		if res.Stats.CacheMisses != 0 {
			t.Fatalf("%s: separately built equal database missed %d times", ex, res.Stats.CacheMisses)
		}
		mustMatchOracle(t, ex, chainQuery(), b, res)
	}
}

// shadowC0 parses a request that shadows c0 with its own rel block over
// the resident database, the way the server's query path does.
func shadowC0(t *testing.T, resident cq.Database, rows string) cq.Database {
	t.Helper()
	text := "rel c0 {\n" + rows + "}\nquery ans(a, d) :- c0(a, b), c1(b, c), c2(c, d).\n"
	f, err := cqparse.ParseWith(strings.NewReader(text), resident)
	if err != nil {
		t.Fatal(err)
	}
	if f.DB["c0"] == resident["c0"] || f.DB["c1"] != resident["c1"] {
		t.Fatal("ParseWith must shadow c0 and share the other relations")
	}
	return f.DB
}

// TestCacheShadowedRelationNeverAliases runs a query over the resident
// database, then over a request that shadows c0 with different rows: no
// lookup may return the resident entry, and the answer must be the
// shadowed database's.
func TestCacheShadowedRelationNeverAliases(t *testing.T) {
	for _, ex := range soundnessExecutors {
		t.Run(ex, func(t *testing.T) {
			resident, q, p, c := chainDB(), chainQuery(), chainPlan(), NewCache(0)
			base := cachedRun(t, ex, p, resident, c)
			mustMatchOracle(t, "resident", q, resident, base)
			shadowed := shadowC0(t, resident, "5 6\n7 8\n")
			if shadowed["c0"].ContentDigest() == resident["c0"].ContentDigest() {
				t.Fatal("shadowed c0 digests like the resident c0")
			}
			res := cachedRun(t, ex, p, shadowed, c)
			mustMatchOracle(t, "shadowed", q, shadowed, res)
			if res.Rel.Equal(base.Rel) {
				t.Fatal("shadowed answer equals the resident answer; the test data proves nothing")
			}
			// The resident entries are still there and still right.
			again := cachedRun(t, ex, p, resident, c)
			if again.Stats.CacheMisses != 0 {
				t.Fatalf("resident rerun missed %d times", again.Stats.CacheMisses)
			}
			mustMatchOracle(t, "resident rerun", q, resident, again)
		})
	}
}

// TestCacheSubtreeSkippingShadowHits checks read-set keying pays off: the
// subtree π(c1 ⋈ c2) does not read the shadowed c0, so it hits the entry
// the resident run stored, while the root (which reads c0) misses.
func TestCacheSubtreeSkippingShadowHits(t *testing.T) {
	for _, ex := range []string{"sequential", "parallel"} {
		resident, q, p, c := chainDB(), chainQuery(), chainPlan(), NewCache(0)
		cachedRun(t, ex, p, resident, c)
		shadowed := shadowC0(t, resident, "1 2\n")
		res := cachedRun(t, ex, p, shadowed, c)
		if res.Stats.CacheHits != 1 || res.Stats.CacheMisses != 2 {
			t.Fatalf("%s: hits=%d misses=%d, want the c0-free subtree to hit (1/2)",
				ex, res.Stats.CacheHits, res.Stats.CacheMisses)
		}
		mustMatchOracle(t, ex, q, shadowed, res)
	}
}
