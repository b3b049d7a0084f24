package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"projpush/internal/core"
	"projpush/internal/cqparse"
	"projpush/internal/engine"
	"projpush/internal/plan"
	"projpush/internal/server"
	"projpush/internal/treedec"
)

// The traced run times, from this package, calls into each layer's
// public functions. Per request it records one root span and beneath it:
//
//	client.dial          a raw dial to the serving address
//	wire.roundtrip       the served request: WriteFrame to ReadFrame
//	  cqparse.parse      ┐ in-process replicas of the work the server
//	  core.plan          │ did inside the round trip, attributed to it:
//	  admission.width    │ the round trip's self time is what no layer
//	  engine.exec        │ accounts for (server.unattributed_us)
//	    engine.fingerprint (cache on only: the digest exec computes)
//	  server.encode      ┘
//	cluster.direct       fleet only: the same request sent to the worker
//	                     that answered it, skipping the coordinator
//	server.explain       the same request as op explain
//
// The replicas run after the round trip, so a span's self time is its
// duration minus the summed durations of its children, not the part of
// its interval they cover.

// span is one timed call. Times are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Note   string `json:"note,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// add records a finished call as a span and returns its id.
func (t *tracer) add(name string, parent, req int, c call, note string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(c.start.Sub(t.t0)), End: int64(c.end.Sub(t.t0)), Note: note})
	return id
}

// selfTimes fills every span's self time: its duration minus its
// children's. Every call of a request is timed on its own, so a root's
// self time is its duration minus all the request's other spans: the
// benchmark's own work between calls.
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	root := -1
	for _, s := range t.spans {
		if s.Parent < 0 {
			root = s.ID
			continue
		}
		d := s.End - s.Start
		if s.Parent != root {
			t.spans[s.Parent].Self -= d
		}
		t.spans[root].Self -= d
	}
}

// header is the trace file's run metadata.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
}

func newHeader(workload string, seed int64, d time.Duration) header {
	return header{
		Workload:   workload,
		Seed:       seed,
		Seconds:    d.Seconds(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// counter counts the bytes read or written through it.
type counter struct {
	rw io.ReadWriter
	n  int
}

func (c *counter) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.n += n
	return n, err
}

func (c *counter) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.n += n
	return n, err
}

// call is one timed call.
type call struct {
	name       string
	start, end time.Time
}

func (c call) dur() time.Duration { return c.end.Sub(c.start) }

// roundTrip sends one request over a fresh connection with the
// protocol's frame functions. It returns the response, the frame sizes
// on the wire, and the call from the write's start to the read's end.
func roundTrip(addr string, req *server.Request) (resp *server.Response, reqBytes, respBytes int, c call, err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, 0, 0, c, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	w, r := &counter{rw: conn}, &counter{rw: conn}
	resp = &server.Response{}
	c.start = time.Now()
	if err = server.WriteFrame(w, req); err == nil {
		err = server.ReadFrame(r, resp)
	}
	c.end = time.Now()
	return resp, w.n, r.n, c, err
}

// layerSample is one traced request's layer timings.
type layerSample struct {
	route                                           string
	dial, rt, explain, parse, plan, admit, fp, exec time.Duration
	encode, unattributed, hop                       time.Duration
	reqBytes, respBytes                             int
}

// traced is the outcome of a traced pass.
type traced struct {
	rounds, attempted, failed int
	samples                   []layerSample
	hits, misses, evictions   int64
	routes                    map[string]int
	degraded                  int
	peakBytes                 int64
	tuples, reduced, seeks    int64
	failovers, hedges         int
	byWorker                  map[string]int
	tr                        *tracer
}

// layers is the traced run: one set-up, an untraced half pass for the
// Go runtime's counters, then a traced half pass for the layer spans,
// written to path when the run ends.
func (b *bench) layers(d time.Duration, path string, h header) (metrics, int, int, error) {
	if _, err := b.setUp(1); err != nil {
		return nil, 0, 0, err
	}
	p, err := b.run(d / 2)
	var t *traced
	if err == nil {
		t, err = b.tracePass(d - d/2)
	}
	if err == nil {
		err = b.checkShadowed()
	}
	if serr := b.st.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stop: %w", serr)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	if err := writeTrace(path, h, t.tr); err != nil {
		return nil, 0, 0, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "servebench: %s: trace of %d requests in %s; median self time by span:\n%s",
		b.w.name, t.attempted, path, selfSummary(t.tr))
	kq := float64(max(len(p.lat), 1)) / 1000
	alloc := float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / (1 << 20) / kq
	gcs := float64(p.mem1.NumGC-p.mem0.NumGC) / kq
	return layerMetrics(t, alloc, gcs), p.attempted + t.attempted, p.failed + t.failed, nil
}

// tracePass runs whole rounds for d, tracing every request.
func (b *bench) tracePass(d time.Duration) (*traced, error) {
	out := &traced{routes: map[string]int{}, byWorker: map[string]int{}, tr: &tracer{t0: time.Now()}}
	t0 := time.Now()
	for out.rounds == 0 || time.Since(t0) < d {
		slots := 0
		for i := range b.w.round {
			r := b.requestAt(b.rounds, i, &slots)
			if err := b.traceRequest(out, r); err != nil {
				return nil, err
			}
		}
		out.rounds++
		b.rounds++
	}
	return out, nil
}

func (b *bench) traceRequest(out *traced, r *request) error {
	tr, id := out.tr, out.attempted
	out.attempted++
	rootStart := time.Now()
	var s layerSample

	dial := call{start: time.Now()}
	if conn, err := net.Dial("tcp", b.st.addr); err == nil {
		conn.Close()
	}
	dial.end = time.Now()
	s.dial = dial.dur()

	var c0 engine.CacheCounters
	if b.st.cache != nil {
		c0 = b.st.cache.Counters()
	}
	resp, reqBytes, respBytes, rt, err := roundTrip(b.st.addr, &r.req)
	if b.st.cache != nil {
		c1 := b.st.cache.Counters()
		out.hits += c1.Hits - c0.Hits
		out.misses += c1.Misses - c0.Misses
		out.evictions += c1.Evictions - c0.Evictions
	}
	if err != nil || !answered(resp) {
		out.failed++
		return nil
	}
	if err := b.check(r, resp); err != nil {
		return err
	}
	s.rt, s.reqBytes, s.respBytes = rt.dur(), reqBytes, respBytes
	s.route = route(resp.Verdict)
	out.routes[s.route]++
	if resp.Status == server.StatusDegraded {
		out.degraded++
	}
	if st := resp.Stats; st != nil {
		out.peakBytes = max(out.peakBytes, st.PeakBytes)
		out.tuples += st.Tuples
		out.reduced += st.Reduced
		out.seeks += st.Seeks
	}
	out.failovers += resp.Failovers
	if resp.Hedged {
		out.hedges++
	}
	if resp.Worker != "" {
		out.byWorker[resp.Worker]++
	}

	var direct call
	if b.st.fleet != nil {
		addr, ok := b.st.workers[resp.Worker]
		if !ok {
			return fmt.Errorf("%s: answered by unknown worker %q", r.class, resp.Worker)
		}
		if _, _, _, direct, err = roundTrip(addr, &r.req); err != nil {
			return fmt.Errorf("%s: direct to %s: %w", r.class, resp.Worker, err)
		}
		s.hop = s.rt - direct.dur()
	}
	explainReq := r.req
	explainReq.Op = "explain"
	_, _, _, explain, err := roundTrip(b.st.addr, &explainReq)
	if err != nil {
		return fmt.Errorf("%s: explain: %w", r.class, err)
	}
	s.explain = explain.dur()

	layers, err := b.replay(r, resp.Verdict, s.route)
	if err != nil {
		return fmt.Errorf("%s: %w", r.class, err)
	}
	for _, c := range layers {
		switch c.name {
		case "cqparse.parse":
			s.parse = c.dur()
		case "core.plan":
			s.plan = c.dur()
		case "admission.width":
			s.admit = c.dur()
		case "engine.fingerprint":
			s.fp = c.dur()
		case "engine.exec":
			s.exec = c.dur()
		case "server.encode":
			s.encode = c.dur()
		}
	}
	s.unattributed = s.rt - (s.parse + s.plan + s.admit + s.exec + s.encode)
	out.samples = append(out.samples, s)

	root := tr.add("request", -1, id, call{start: rootStart, end: time.Now()}, r.class)
	tr.add("client.dial", root, id, dial, "")
	rtID := tr.add("wire.roundtrip", root, id, rt, s.route)
	fp, exec := -1, -1
	for _, c := range layers {
		sid := tr.add(c.name, rtID, id, c, "")
		switch c.name {
		case "engine.fingerprint":
			fp = sid
		case "engine.exec":
			exec = sid
		}
	}
	if fp >= 0 {
		// The executor digests the database itself: the fingerprint is
		// part of the exec span, measured separately.
		tr.spans[fp].Parent = exec
	}
	if b.st.fleet != nil {
		tr.add("cluster.direct", root, id, direct, resp.Worker)
	}
	tr.add("server.explain", root, id, explain, "")
	return nil
}

// replay re-runs in process, and times, the layers the server ran for r
// under the verdict's method and route, with the workload's options and
// cache.
func (b *bench) replay(r *request, v *server.Verdict, rt string) ([]call, error) {
	var calls []call
	clock := func(name string, f func() error) error {
		c := call{name: name, start: time.Now()}
		err := f()
		c.end = time.Now()
		calls = append(calls, c)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var file *cqparse.File
	if err := clock("cqparse.parse", func() (err error) {
		file, err = cqparse.ParseWith(strings.NewReader(r.req.Query), b.db)
		return err
	}); err != nil {
		return nil, err
	}
	q := file.Query
	var p plan.Node
	if err := clock("core.plan", func() (err error) {
		p, err = core.BuildPlan(core.Method(v.Method), q, nil)
		return err
	}); err != nil {
		return nil, err
	}
	if err := clock("admission.width", func() error {
		plan.Analyze(p)
		jg, elim, err := core.EliminationOrder(q, core.OrderMCS, nil)
		if err == nil {
			treedec.InducedWidth(jg.G, elim)
		}
		return err
	}); err != nil {
		return nil, err
	}
	cfg := serverConfig(nil, b.st.cache)
	opt := engine.Options{MaxRows: cfg.MaxRows, MaxBytes: cfg.MaxBytes, Cache: cfg.Cache}
	ctx := context.Background()
	var res *engine.Result
	if err := clock("engine.exec", func() (err error) {
		switch rt {
		case "yannakakis":
			res, err = engine.ExecYannakakisContext(ctx, q, file.DB, opt)
		case "stream":
			res, err = engine.ExecStreamContext(ctx, p, file.DB, opt)
		case "wcoj":
			res, err = engine.ExecWCOJContext(ctx, q, file.DB, opt)
		default:
			res, err = engine.ExecContext(ctx, p, file.DB, opt)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if b.st.cache != nil {
		// Timed after the execution, which digests the same database
		// first: a cold first pass over it is charged to neither.
		clock("engine.fingerprint", func() error {
			engine.DatabaseFingerprint(file.DB)
			return nil
		})
	}
	if err := clock("server.encode", func() error {
		return server.WriteFrame(io.Discard, &server.Response{
			Status: server.StatusOK, Answer: server.AnswerOf(res),
			Verdict: v, Stats: server.StatsOf(&res.Stats),
		})
	}); err != nil {
		return nil, err
	}
	return calls, nil
}

// layerMetrics turns a traced pass into the per-layer metrics.
func layerMetrics(t *traced, allocMBPerKQ, gcPerKQ float64) metrics {
	m := metrics{}
	med := func(name string, f func(s layerSample) (time.Duration, bool)) {
		var v []time.Duration
		for _, s := range t.samples {
			if d, ok := f(s); ok {
				v = append(v, d)
			}
		}
		sortDurations(v)
		m.add(name, "us", us(percentile(v, 0.5)))
	}
	all := func(f func(s layerSample) time.Duration) func(layerSample) (time.Duration, bool) {
		return func(s layerSample) (time.Duration, bool) { return f(s), true }
	}
	fleet := len(t.byWorker) > 0
	med("client.dial_us", all(func(s layerSample) time.Duration { return s.dial }))
	med("wire.roundtrip_us", all(func(s layerSample) time.Duration { return s.rt }))
	med("server.explain_us", all(func(s layerSample) time.Duration { return s.explain }))
	med("cqparse.parse_us", all(func(s layerSample) time.Duration { return s.parse }))
	med("core.plan_us", all(func(s layerSample) time.Duration { return s.plan }))
	med("admission.width_us", all(func(s layerSample) time.Duration { return s.admit }))
	med("engine.fingerprint_us", all(func(s layerSample) time.Duration { return s.fp }))
	med("engine.exec_us", all(func(s layerSample) time.Duration { return s.exec }))
	for _, r := range []string{"yannakakis", "stream", "wcoj", "plan"} {
		med("engine.exec_us."+r, func(s layerSample) (time.Duration, bool) { return s.exec, s.route == r })
	}
	med("server.encode_us", all(func(s layerSample) time.Duration { return s.encode }))
	med("server.unattributed_us", all(func(s layerSample) time.Duration { return s.unattributed }))
	med("cluster.hop_us", func(s layerSample) (time.Duration, bool) { return s.hop, fleet })
	sizes := func(f func(s layerSample) int) float64 {
		v := make([]int, len(t.samples))
		for i, s := range t.samples {
			v[i] = f(s)
		}
		sort.Ints(v)
		if len(v) == 0 {
			return 0
		}
		return float64(v[len(v)/2])
	}
	m.add("wire.request_bytes", "B", sizes(func(s layerSample) int { return s.reqBytes }))
	m.add("wire.response_bytes", "B", sizes(func(s layerSample) int { return s.respBytes }))
	perRound := func(n int64) float64 { return float64(n) / float64(t.rounds) }
	ratio := 0.0
	if t.hits+t.misses > 0 {
		ratio = float64(t.hits) / float64(t.hits+t.misses)
	}
	m.add("engine.cache_hit_ratio", "ratio", ratio)
	m.add("engine.cache_evictions", "count", perRound(t.evictions))
	m.add("engine.peak_bytes", "B", float64(t.peakBytes))
	m.add("engine.tuples", "count", perRound(t.tuples))
	m.add("engine.reduced_tuples", "count", perRound(t.reduced))
	m.add("engine.seeks", "count", perRound(t.seeks))
	m.add("cluster.failovers", "count", perRound(int64(t.failovers)))
	m.add("cluster.hedge_wins", "count", perRound(int64(t.hedges)))
	share := 0.0
	for _, n := range t.byWorker {
		share = max(share, float64(n)/float64(len(t.samples)))
	}
	m.add("cluster.worker_share_max", "ratio", share)
	for _, r := range []string{"yannakakis", "stream", "wcoj", "plan"} {
		m.add("route."+r, "count", perRound(int64(t.routes[r])))
	}
	m.add("server.degraded", "count", perRound(int64(t.degraded)))
	m.add("go.alloc_mb_per_kq", "MB/kq", allocMBPerKQ)
	m.add("go.gc_cycles_per_kq", "1/kq", gcPerKQ)
	return m
}

// writeTrace writes the header and every span to one file.
func writeTrace(path string, h header, t *tracer) error {
	t.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"header": h}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfSummary is the median self time of each span name, in µs.
func selfSummary(t *tracer) string {
	by := map[string][]time.Duration{}
	for _, s := range t.spans {
		by[s.Name] = append(by[s.Name], time.Duration(s.Self))
	}
	names := make([]string, 0, len(by))
	for n, d := range by {
		sortDurations(d)
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return percentile(by[names[i]], 0.5) > percentile(by[names[j]], 0.5)
	})
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-22s %10.1f us median self (%d spans)\n", n, us(percentile(by[n], 0.5)), len(by[n]))
	}
	return b.String()
}
