package engine

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"projpush/internal/cq"
	"projpush/internal/plan"
	"projpush/internal/relation"
)

// Cache is a sharded, memory-accounted result cache for subplan
// executions. The paper's figure pipeline runs the same structured
// workloads through five methods × many repetitions over one tiny
// database, and the methods' plans share scans and low subjoins — so
// identical subtrees are re-joined from scratch thousands of times.
// The cache memoizes every Join and Project subtree result under a key
// that is invariant to variable renaming:
//
//	key = readSet(subtree) ⊕ plan.Fingerprint(subtree)
//
// where the read set pairs each relation the subtree scans with its
// memoized content digest (relation.ContentDigest).
//
// Cached relations are stored over canonical attributes (the fingerprint's
// first-occurrence numbering) and re-bound to the hitting subtree's actual
// variables with a zero-copy relation.Rename, so a hit costs O(arity), not
// O(rows). Alongside the relation, each entry carries the subtree's
// execution Stats (max intermediate rows/arity, tuples, work, operator
// counts); a hit merges them into the running execution's stats, so
// cache-on and cache-off runs report identical instrumentation — the
// property the differential tests pin down.
//
// Sharding: keys hash onto a fixed array of mutex-guarded shards, so
// concurrent executions (the parallel executor, the experiment harness
// worker pool) contend only per shard. Memory: every entry is accounted
// at its relation's arena+table size; inserting past a shard's share of
// MaxBytes evicts least-recently-used entries of that shard. Entries
// whose relation alone exceeds the shard budget are not cached at all.
//
// Concurrent misses of the same key may compute the result twice; the
// second store is dropped. That keeps the fast path lock-free outside the
// shard map and is harmless: results are deterministic per key.
type Cache struct {
	maxBytes   int64
	shardMax   int64
	shards     [cacheShards]cacheShard
	tick       atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	totalBytes atomic.Int64
}

const cacheShards = 16

// DefaultCacheBytes is the memory budget NewCache applies when given a
// non-positive limit.
const DefaultCacheBytes = 256 << 20

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	bytes   int64
}

type cacheEntry struct {
	rel     *relation.Relation // canonical attributes 0..arity-1
	stats   Stats              // subtree-local execution stats
	bytes   int64
	lastUse int64
}

// NewCache returns an empty cache bounded by maxBytes of cached relation
// storage (DefaultCacheBytes if maxBytes <= 0).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	c := &Cache{maxBytes: maxBytes, shardMax: maxBytes / cacheShards}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheEntry)
	}
	return c
}

// CacheCounters is a snapshot of a cache's lifetime counters.
type CacheCounters struct {
	Hits, Misses, Evictions, Entries int64
	Bytes                            int64
}

// Counters returns the cache's lifetime hit/miss/eviction counts and its
// current entry count and accounted bytes.
func (c *Cache) Counters() CacheCounters {
	var entries int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return CacheCounters{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     c.totalBytes.Load(),
	}
}

// String renders the counters compactly, the form Explain appends.
func (cc CacheCounters) String() string {
	return fmt.Sprintf("hits=%d misses=%d entries=%d bytes=%d evictions=%d",
		cc.Hits, cc.Misses, cc.Entries, cc.Bytes, cc.Evictions)
}

// shard picks the shard of a key by FNV-1a.
func (c *Cache) shard(key string) *cacheShard {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h%cacheShards]
}

// get looks the key up, returning the entry's relation and subtree stats.
func (c *Cache) get(key string) (*relation.Relation, Stats, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		e.lastUse = c.tick.Add(1)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, Stats{}, false
	}
	c.hits.Add(1)
	return e.rel, e.stats, true
}

// put stores a subtree result (over canonical attributes) unless an entry
// for the key already exists or the relation alone exceeds the per-shard
// budget. Over-budget shards evict least-recently-used entries.
func (c *Cache) put(key string, rel *relation.Relation, stats Stats) {
	bytes := rel.Bytes() + int64(len(key))
	if bytes > c.shardMax {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[key]; dup {
		return
	}
	for s.bytes+bytes > c.shardMax {
		var oldKey string
		var old *cacheEntry
		for k, e := range s.entries {
			if old == nil || e.lastUse < old.lastUse {
				oldKey, old = k, e
			}
		}
		if old == nil {
			break
		}
		delete(s.entries, oldKey)
		s.bytes -= old.bytes
		c.totalBytes.Add(-old.bytes)
		c.evictions.Add(1)
	}
	s.entries[key] = &cacheEntry{rel: rel, stats: stats, bytes: bytes, lastUse: c.tick.Add(1)}
	s.bytes += bytes
	c.totalBytes.Add(bytes)
}

// DatabaseFingerprint digests a whole database: every relation's name
// and memoized relation.ContentDigest, in name order. It costs
// O(relations), not O(tuples): each relation is hashed once, on first
// use, and re-hashed only after a mutation (see ContentDigest). The
// cache itself keys entries on the narrower read set (subplanKey); this
// whole-database form is for callers that want one identity per
// database.
func DatabaseFingerprint(db cq.Database) string {
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sort.Strings(names)
	var h uint64 = 14695981039346656037
	for _, name := range names {
		for i := 0; i < len(name); i++ {
			h ^= uint64(name[i])
			h *= 1099511628211
		}
		d := db[name].ContentDigest()
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(d >> s))
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// subplanKey keys subtree n's cache entry on its read set and its
// renaming-invariant fingerprint, returning the canonicalization witness
// needed to bind a cached relation to the subtree's actual variables.
//
// The read set pairs each relation the subtree scans, once, with its
// memoized relation.ContentDigest, in plan.Fingerprint's left-to-right
// walk order. Keying on it instead of the whole database makes an entry
// depend only on what its subtree reads: a lookup costs O(relations
// read), a relation a request shadows re-keys only the subtrees that
// scan it, and a mutated relation can never alias a stale entry.
func subplanKey(db cq.Database, n plan.Node) (string, []cq.Var) {
	fp, vars := plan.Fingerprint(n)
	var seen [8]string
	b := make([]byte, 0, len(fp)+64)
	b, _ = appendReadSet(b, db, n, seen[:0])
	b = append(b, 0)
	b = append(b, fp...)
	return string(b), vars
}

// appendReadSet appends "name:digest," for every relation under n not
// already in seen, in walk order, and returns the grown seen list.
func appendReadSet(b []byte, db cq.Database, n plan.Node, seen []string) ([]byte, []string) {
	switch t := n.(type) {
	case *plan.Scan:
		name := t.Atom.Rel
		for _, s := range seen {
			if s == name {
				return b, seen
			}
		}
		b = append(b, name...)
		b = append(b, ':')
		if rel, ok := db[name]; ok {
			b = strconv.AppendUint(b, rel.ContentDigest(), 16)
		} else {
			b = append(b, '-') // unknown: the run fails before any store
		}
		return append(b, ','), append(seen, name)
	case *plan.Join:
		b, seen = appendReadSet(b, db, t.Left, seen)
		return appendReadSet(b, db, t.Right, seen)
	case *plan.Project:
		return appendReadSet(b, db, t.Child, seen)
	default:
		for _, c := range n.Children() {
			b, seen = appendReadSet(b, db, c, seen)
		}
		return b, seen
	}
}

// streamScanKeys derives the streaming engine's per-scan cache keys: one
// key per base-relation occurrence, in the pushdown pre-pass's collect
// (DFS) order. The reduced view of a scan depends on every reduction edge
// of the plan, so the key embeds the whole plan's read set and
// renaming-invariant fingerprint; the scan position disambiguates
// occurrences, and DFS order corresponds across isomorphic plans.
func streamScanKeys(db cq.Database, p plan.Node, n int) []string {
	key, _ := subplanKey(db, p)
	prefix := key + "\x00streamscan:"
	keys := make([]string, n)
	for i := range keys {
		keys[i] = prefix + strconv.Itoa(i)
	}
	return keys
}

// scanToCanonical renames a scan's (reduced) view onto positional
// attributes 0..arity-1, so the cached relation is invariant to the
// query's variable naming.
func scanToCanonical(rel *relation.Relation, args []cq.Var) *relation.Relation {
	m := make(map[relation.Attr]relation.Attr, len(args))
	for i, a := range args {
		m[a] = relation.Attr(i)
	}
	return relation.Rename(rel, m)
}

// scanFromCanonical binds a cached canonical scan view to the hitting
// atom's actual argument variables.
func scanFromCanonical(rel *relation.Relation, args []cq.Var) *relation.Relation {
	m := make(map[relation.Attr]relation.Attr, len(args))
	for i, a := range args {
		m[relation.Attr(i)] = a
	}
	return relation.Rename(rel, m)
}

// toCanonical renames a subtree result onto the canonical attributes of
// its fingerprint: vars[i] → i.
func toCanonical(rel *relation.Relation, vars []cq.Var) *relation.Relation {
	m := make(map[relation.Attr]relation.Attr, len(vars))
	for i, v := range vars {
		m[v] = i
	}
	return relation.Rename(rel, m)
}

// fromCanonical binds a cached canonical relation to the hitting
// subtree's actual variables: i → vars[i].
func fromCanonical(rel *relation.Relation, vars []cq.Var) *relation.Relation {
	m := make(map[relation.Attr]relation.Attr, len(vars))
	for i, v := range vars {
		m[i] = v
	}
	return relation.Rename(rel, m)
}
