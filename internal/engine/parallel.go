package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"projpush/internal/cq"
	"projpush/internal/faultinject"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// ExecParallel evaluates the plan like Exec but exploits parallelism on
// two axes:
//
//   - across the plan: the two sides of a join are computed concurrently
//     when both are non-trivial subtrees. Bucket elimination and
//     tree-decomposition plans are bushy — sibling buckets share no state
//     — so independent subtrees parallelize cleanly.
//
//   - inside a join: large joins are radix-partitioned on the join key
//     and the partitions are joined by a worker pool
//     (relation.ParallelJoinLimited). This is what lets chain-shaped
//     (left-deep) plans — the straightforward method on paths, ladders,
//     and augmented circular ladders — benefit from workers > 1, where
//     subtree parallelism alone degenerates to sequential execution.
//
// workers bounds the number of concurrently evaluating subtrees and the
// fan-out of each partitioned join (values < 2 degenerate to sequential
// execution). Results are identical to Exec. Statistics are aggregated
// across goroutines; per-operator counters are exact, Work and MaxRows
// are merged from each goroutine's private counters.
//
// A subplan cache (opt.Cache) is shared with the sequential executors:
// lookups and stores go through the cache's own shard locks, and the
// per-subtree stats stored with each entry are aggregated in a private
// mutex-guarded frame before being folded into the run's totals, so hits
// replay identical instrumentation regardless of which executor populated
// the entry.
func ExecParallel(n plan.Node, db cq.Database, opt Options, workers int) (*Result, error) {
	return ExecParallelContext(context.Background(), n, db, opt, workers)
}

// ExecParallelContext is ExecParallel under a context: cancellation is
// polled by every kernel and every partition worker, and surfaces as
// ErrCanceled. A panic in a subtree-evaluating goroutine is recovered at
// the goroutine boundary, cancels the sibling subtree's workers via the
// shared limit, and surfaces as ErrInternal instead of crashing the
// process.
func ExecParallelContext(ctx context.Context, n plan.Node, db cq.Database, opt Options, workers int) (*Result, error) {
	if workers < 2 {
		return ExecContext(ctx, n, db, opt)
	}
	var deadline time.Time
	if opt.Timeout > 0 {
		deadline = time.Now().Add(opt.Timeout)
	}
	// The run's internal context lets a failing subtree cancel its
	// concurrently-evaluating siblings instead of letting them run to
	// their own limits.
	ctx, abort := context.WithCancel(ctx)
	defer abort()
	pe := &parallelExec{
		db:       db,
		ctx:      ctx,
		abort:    abort,
		deadline: deadline,
		maxRows:  opt.MaxRows,
		maxBytes: opt.MaxBytes,
		cache:    opt.Cache,
		workers:  workers,
		sem:      make(chan struct{}, workers),
		sizes:    make(map[plan.Node]int),
	}
	measureSubtrees(n, pe.sizes)
	root := &pframe{}
	start := time.Now()
	rel, err := pe.eval(n, root)
	root.stats.Elapsed = time.Since(start)
	if err != nil {
		return &Result{Stats: root.stats}, classifyErr(err, root.stats.Elapsed)
	}
	return &Result{Rel: rel, Stats: root.stats}, nil
}

type parallelExec struct {
	db       cq.Database
	ctx      context.Context
	abort    context.CancelFunc
	deadline time.Time
	maxRows  int
	maxBytes int64
	bytes    atomic.Int64
	cache    *Cache
	workers  int
	sem      chan struct{}
	sizes    map[plan.Node]int
}

// pframe is a mutex-guarded stats frame: the aggregation target for the
// goroutines evaluating one subtree. The root frame collects the whole
// run; each cache-candidate subtree gets a private frame so the stats
// stored with its cache entry cover exactly that subtree.
type pframe struct {
	mu    sync.Mutex
	stats Stats
}

// observe merges one operator's output into the frame.
func (fr *pframe) observe(r *relation.Relation, kind byte, work int64) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if r.Len() > fr.stats.MaxRows {
		fr.stats.MaxRows = r.Len()
	}
	if r.Arity() > fr.stats.MaxArity {
		fr.stats.MaxArity = r.Arity()
	}
	fr.stats.Tuples += int64(r.Len())
	fr.stats.Work += work
	switch kind {
	case 'j':
		fr.stats.Joins++
		fr.stats.Bytes += r.Bytes()
		fr.stats.PeakBytes += r.Bytes()
		fr.stats.MaterializedTuples += int64(r.Len())
	case 'p':
		fr.stats.Projections++
		fr.stats.Bytes += r.Bytes()
		fr.stats.PeakBytes += r.Bytes()
		fr.stats.MaterializedTuples += int64(r.Len())
	}
}

// merge folds another frame (or a cached entry's stats) into the frame.
func (fr *pframe) merge(o *Stats) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.stats.merge(o)
}

// lim builds a fresh private limit for one operator invocation. The byte
// counter is shared across all operators and workers of the run.
func (pe *parallelExec) lim(work *int64) *relation.Limit {
	return &relation.Limit{
		MaxRows:  pe.maxRows,
		Deadline: pe.deadline,
		Work:     work,
		Ctx:      pe.ctx,
		MaxBytes: pe.maxBytes,
		Bytes:    &pe.bytes,
	}
}

// measureSubtrees records the node count of every subtree in one walk, so
// evalPair's fork-or-not decision is O(1) per join instead of re-walking
// the subtree at every pair (O(n²) on deep chain plans).
func measureSubtrees(n plan.Node, sizes map[plan.Node]int) int {
	size := 1
	for _, c := range n.Children() {
		size += measureSubtrees(c, sizes)
	}
	sizes[n] = size
	return size
}

func (pe *parallelExec) eval(n plan.Node, fr *pframe) (*relation.Relation, error) {
	if _, isScan := n.(*plan.Scan); !isScan && pe.cache != nil {
		return pe.evalCached(n, fr)
	}
	return pe.evalOp(n, fr)
}

// evalCached wraps evalOp in a cache lookup/store, mirroring the
// sequential executor: misses evaluate into a private frame whose totals
// become the stored entry's stats.
func (pe *parallelExec) evalCached(n plan.Node, fr *pframe) (*relation.Relation, error) {
	key, vars := subplanKey(pe.db, n)
	admissible := func(sub *Stats) bool {
		if pe.maxRows > 0 && sub.MaxRows > pe.maxRows {
			return false
		}
		if pe.maxBytes > 0 && pe.bytes.Load()+sub.Bytes > pe.maxBytes {
			return false
		}
		return true
	}
	if rel, sub, ok := pe.cache.get(key); ok && admissible(&sub) {
		sub.CacheHits++
		fr.merge(&sub)
		pe.bytes.Add(sub.Bytes)
		return fromCanonical(rel, vars), nil
	}
	nf := &pframe{}
	rel, err := pe.evalOp(n, nf)
	nf.stats.CacheMisses++
	entryStats := nf.stats
	entryStats.CacheHits, entryStats.CacheMisses = 0, 0
	fr.merge(&nf.stats)
	if err != nil {
		return nil, err
	}
	pe.cache.put(key, toCanonical(rel, vars), entryStats)
	return rel, nil
}

func (pe *parallelExec) evalOp(n plan.Node, fr *pframe) (*relation.Relation, error) {
	switch t := n.(type) {
	case *plan.Scan:
		rel, ok := pe.db[t.Atom.Rel]
		if !ok {
			return nil, fmt.Errorf("engine: unknown relation %q", t.Atom.Rel)
		}
		if rel.Arity() != len(t.Atom.Args) {
			return nil, fmt.Errorf("engine: atom %s arity mismatch", t.Atom)
		}
		m := make(map[relation.Attr]relation.Attr, rel.Arity())
		for i, a := range rel.Attrs() {
			m[a] = t.Atom.Args[i]
		}
		bound := relation.Rename(rel, m)
		fr.observe(bound, 's', 0)
		return bound, nil

	case *plan.Join:
		l, r, err := pe.evalPair(t.Left, t.Right, fr)
		if err != nil {
			return nil, err
		}
		var work int64
		out, err := relation.ParallelJoinLimited(l, r, pe.lim(&work), pe.workers)
		if err != nil {
			return nil, err
		}
		fr.observe(out, 'j', work)
		return out, nil

	case *plan.Project:
		c, err := pe.eval(t.Child, fr)
		if err != nil {
			return nil, err
		}
		var work int64
		out, err := relation.ProjectLimited(c, t.Cols, pe.lim(&work))
		if err != nil {
			return nil, err
		}
		fr.observe(out, 'p', work)
		return out, nil

	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// evalPair evaluates two subtrees, concurrently when both are non-trivial
// and a worker slot is free.
func (pe *parallelExec) evalPair(a, b plan.Node, fr *pframe) (*relation.Relation, *relation.Relation, error) {
	if pe.sizes[a] < 3 || pe.sizes[b] < 3 {
		ra, err := pe.eval(a, fr)
		if err != nil {
			return nil, nil, err
		}
		rb, err := pe.eval(b, fr)
		if err != nil {
			return nil, nil, err
		}
		return ra, rb, nil
	}
	select {
	case pe.sem <- struct{}{}:
		var (
			rb  *relation.Relation
			ebr error
			wg  sync.WaitGroup
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-pe.sem }()
			// A failing subtree cancels its sibling; a panicking one
			// additionally becomes a typed error at the goroutine
			// boundary (classified as ErrInternal by the entry point)
			// instead of crashing the process.
			defer func() {
				if ebr != nil {
					pe.abort()
				}
			}()
			defer relation.RecoverPanic(&ebr)
			faultinject.Panic(faultinject.PanicSubtreeWorker)
			rb, ebr = pe.eval(b, fr)
		}()
		ra, ear := pe.eval(a, fr)
		if ear != nil {
			pe.abort()
		}
		wg.Wait()
		if err := preferErr(ear, ebr); err != nil {
			return nil, nil, err
		}
		return ra, rb, nil
	default:
		// No free worker: stay sequential.
		ra, err := pe.eval(a, fr)
		if err != nil {
			return nil, nil, err
		}
		rb, err := pe.eval(b, fr)
		if err != nil {
			return nil, nil, err
		}
		return ra, rb, nil
	}
}

// preferErr picks the more informative of two concurrent subtree errors:
// a genuine failure over the cancellation it induced in its sibling.
func preferErr(a, b error) error {
	if a == nil {
		return b
	}
	if b != nil && errors.Is(a, relation.ErrCanceled) && !errors.Is(b, relation.ErrCanceled) {
		return b
	}
	return a
}
