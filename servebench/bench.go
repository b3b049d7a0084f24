package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"projpush/internal/cluster"
	"projpush/internal/core"
	"projpush/internal/cq"
	"projpush/internal/engine"
	"projpush/internal/server"
	"projpush/internal/server/client"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 7

// serverConfig is projpushd's configuration under its default flags,
// with the request log written to io.Discard: the log line is built and
// written, but no terminal I/O is paid.
func serverConfig(db cq.Database, cache *engine.Cache) server.Config {
	return server.Config{
		DB:               db,
		Method:           core.MethodBucketElimination,
		MaxConcurrent:    4,
		QueueWait:        time.Second,
		RequestTimeout:   10 * time.Second,
		MaxRows:          10_000_000,
		MaxBytes:         256 << 20,
		Workers:          1,
		Resilient:        true,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		Cache:            cache,
		Log:              io.Discard,
	}
}

// stack is a running single server or fleet on loopback.
type stack struct {
	addr    string
	cache   *engine.Cache
	srv     *server.Server
	served  chan error
	fleet   *cluster.Fleet
	workers map[string]string // fleet member id -> address
}

// start brings up the workload's serving stack over db, as projpushd
// (or projpushd -fleet 3 -cachemb N) would.
func start(w *workload, db cq.Database) (*stack, error) {
	st := &stack{}
	if w.cacheBytes > 0 {
		st.cache = engine.NewCache(w.cacheBytes)
	}
	cfg := serverConfig(db, st.cache)
	if !w.fleet {
		st.srv = server.New(cfg)
		if err := st.srv.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		st.addr = st.srv.Addr().String()
		st.served = make(chan error, 1)
		go func() { st.served <- st.srv.Serve() }()
		return st, nil
	}
	fl, err := cluster.StartFleet("127.0.0.1:0", cluster.FleetConfig{
		Workers: 3,
		Worker:  cfg,
		Coordinator: cluster.Config{
			DB:             db,
			Method:         core.MethodBucketElimination,
			RequestTimeout: cfg.RequestTimeout,
			LocalFallback:  true,
			MaxRows:        cfg.MaxRows,
			MaxBytes:       cfg.MaxBytes,
			Log:            io.Discard,
		},
		ChaosInterval: -1,
	})
	if err != nil {
		return nil, err
	}
	st.fleet, st.addr = fl, fl.Addr()
	st.workers = map[string]string{}
	for i, a := range fl.WorkerAddrs() {
		st.workers[fmt.Sprintf("w%d", i)] = a
	}
	return st, nil
}

// stop drains the stack and waits for every goroutine it started.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.fleet != nil {
		return st.fleet.Shutdown(ctx)
	}
	err := st.srv.Shutdown(ctx)
	if serr := <-st.served; err == nil && serr != nil {
		err = serr
	}
	return err
}

// bench is one run of one workload.
type bench struct {
	w    *workload
	db   cq.Database // the serving stack's resident database
	st   *stack
	cl   *client.Client
	want map[*request]wanted
	// shadowed holds the fleet-cached requests with fresh tuples that
	// were answered, for checking after the pass.
	shadowed []shadowed
	// rounds counts the rounds sent so far, so that every round of a run
	// draws fresh shadowed requests.
	rounds int
	// mutate, when set, alters every response before it is checked; the
	// tests use it to show that a wrong answer fails the run.
	mutate func(*request, *server.Response)
}

type wanted struct {
	rows   [][]int32
	digest uint64
}

type shadowed struct {
	r      *request
	rows   int
	digest uint64
}

// errWrong marks a wrong answer, which ends the run.
var errWrong = errors.New("wrong answer")

// prepare computes the reference answers of the distinct requests.
func (b *bench) prepare() {
	b.want = map[*request]wanted{}
	for _, r := range b.w.pool {
		rows := r.ref()
		b.want[r] = wanted{rows: rows, digest: digest(rows)}
	}
}

// setup builds the database, starts the stack and sends every distinct
// request once, untimed by the pass; it returns the set-up time. After
// every warm-up request it runs one tick of hc, whose time it leaves
// out.
func (b *bench) setup(hc *hostClock) (time.Duration, error) {
	t0, ticks0 := time.Now(), hc.wall
	db := b.w.build()
	st, err := start(b.w, db)
	if err != nil {
		return 0, fmt.Errorf("start: %w", err)
	}
	b.db, b.st = db, st
	b.cl = client.New(client.Options{Addr: st.addr})
	warm := b.w.pool
	if b.w.shadow != nil {
		warm = append(warm[:len(warm):len(warm)], b.w.shadow(-1, 0))
	}
	for _, r := range warm {
		if err := b.send(r); err != nil {
			return 0, err
		}
		if err := hc.tick(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) - (hc.wall - ticks0), nil
}

// send issues one warm-up request; it must be answered correctly.
func (b *bench) send(r *request) error {
	resp, err := b.cl.Do(context.Background(), &r.req)
	if err != nil {
		return fmt.Errorf("warm-up %s: %w", r.class, err)
	}
	return b.check(r, resp)
}

// check verifies one answered response. Pool requests are compared with
// their reference at once; fresh shadowed requests are recorded and
// compared after the pass, so the reference work stays out of it.
func (b *bench) check(r *request, resp *server.Response) error {
	if b.mutate != nil {
		b.mutate(r, resp)
	}
	rows, err := checkAnswer(r, resp)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", errWrong, r.class, err)
	}
	want, ok := b.want[r]
	if !ok {
		b.shadowed = append(b.shadowed, shadowed{r: r, rows: len(rows), digest: digest(rows)})
		return nil
	}
	if len(rows) != len(want.rows) || digest(rows) != want.digest {
		return fmt.Errorf("%w: %s: %s", errWrong, r.class, firstDiff(want.rows, rows))
	}
	return nil
}

// checkShadowed compares the recorded shadowed answers with their
// references. A mismatch is re-sent to report the first differing row.
func (b *bench) checkShadowed() error {
	for _, s := range b.shadowed {
		want := s.r.ref()
		if len(want) == s.rows && digest(want) == s.digest {
			continue
		}
		detail := fmt.Sprintf("%d rows wanted, %d got", len(want), s.rows)
		if resp, err := b.cl.Do(context.Background(), &s.r.req); err == nil && resp.Answer != nil {
			if got, err := checkAnswer(s.r, resp); err == nil {
				detail = firstDiff(want, got)
			}
		}
		return fmt.Errorf("%w: %s: %s", errWrong, s.r.class, detail)
	}
	b.shadowed = nil
	return nil
}

// pass is the outcome of one closed-loop pass of whole rounds.
type pass struct {
	rounds, attempted, failed int
	// elapsed, cpu and lat are as measured on this host, without the
	// calibration ticks; lat holds the answered requests' latencies.
	elapsed time.Duration
	cpu     time.Duration
	lat     []time.Duration
	byClass map[string][]time.Duration
	// qps and cpuPerQuery hold each round's answered requests per
	// second and CPU time per answered request, and roundLat its
	// latencies, all scaled to the reference host by the round's
	// calibration ticks (see hostClock).
	qps, cpuPerQuery []float64
	roundLat         [][]time.Duration
	// host is the mean of the rounds' host-speed factors.
	host       float64
	mem0, mem1 runtime.MemStats
}

// requestAt returns the request at position i of round k.
func (b *bench) requestAt(k, i int, slots *int) *request {
	idx := b.w.round[i]
	if idx != shadowSlot {
		return b.w.pool[idx]
	}
	r := b.w.shadow(k, *slots)
	*slots++
	return r
}

// run drives the server as a closed loop with one client: each request
// is sent when the previous answer has arrived and been checked, and is
// followed by one calibration tick (see hostClock), timed apart from the
// request. It sends whole rounds until d has passed.
func (b *bench) run(d time.Duration) (*pass, error) {
	hc, err := newHostClock()
	if err != nil {
		return nil, err
	}
	defer hc.close()
	p := &pass{byClass: map[string][]time.Duration{}}
	runtime.ReadMemStats(&p.mem0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var calib, calibCPU time.Duration
	for p.rounds == 0 || time.Since(t0) < d {
		slots, answered0, rt0, rcpu0 := 0, len(p.lat), time.Now(), cpuTime()
		hc.reset()
		for i := range b.w.round {
			r := b.requestAt(b.rounds, i, &slots)
			s := time.Now()
			resp, err := b.cl.Do(context.Background(), &r.req)
			lat := time.Since(s)
			p.attempted++
			if terr := hc.tick(); terr != nil {
				return nil, terr
			}
			if err != nil || !answered(resp) {
				p.failed++
				continue
			}
			if err := b.check(r, resp); err != nil {
				return nil, err
			}
			p.lat = append(p.lat, lat)
			p.byClass[r.class] = append(p.byClass[r.class], lat)
		}
		// The round's ticks ran beside its requests, through the same
		// host weather: they scale the round's times.
		f := hc.factor()
		lat := make([]time.Duration, 0, len(p.lat)-answered0)
		for _, l := range p.lat[answered0:] {
			lat = append(lat, scale(l, f))
		}
		p.roundLat = append(p.roundLat, lat)
		if n := len(lat); n > 0 {
			wall := time.Since(rt0) - hc.wall
			p.qps = append(p.qps, float64(n)/scale(wall, f).Seconds())
			p.cpuPerQuery = append(p.cpuPerQuery, ms(scale(cpuTime()-rcpu0-hc.cpu, f))/float64(n))
		}
		calib, calibCPU = calib+hc.wall, calibCPU+hc.cpu
		p.host += f
		p.rounds++
		b.rounds++
	}
	p.host /= float64(p.rounds)
	p.elapsed = time.Since(t0) - calib
	p.cpu = cpuTime() - cpu0 - calibCPU
	runtime.ReadMemStats(&p.mem1)
	return p, nil
}

// cpuTime is the process's user plus system CPU time. Client and server
// share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// windowRequests is the least number of requests in a latency window:
// enough that ten lie beyond the window's p95.
const windowRequests = 200

// windowP95 cuts the pass into windows of whole rounds holding at least
// windowRequests requests, takes each window's p95, and returns their
// median in ms. A host stall of a few seconds inflates the requests of
// one or two windows; in a pooled p95 those would be most of the tail.
func windowP95(rounds [][]time.Duration) float64 {
	var p95s []float64
	var cur []time.Duration
	for _, r := range rounds {
		cur = append(cur, r...)
		if len(cur) >= windowRequests {
			sortDurations(cur)
			p95s = append(p95s, ms(percentile(cur, 0.95)))
			cur = nil
		}
	}
	if len(p95s) == 0 && len(cur) > 0 {
		sortDurations(cur)
		p95s = append(p95s, ms(percentile(cur, 0.95)))
	}
	return median(p95s)
}

// median is the median of v (the mean of the middle two when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// setupTicks is how many calibration ticks run just before and just
// after each set-up. With the ticks after each warm-up request they
// scale the set-up's time to the reference host.
const setupTicks = 25

// setUp runs the repeated set-ups, keeping the last stack serving, and
// returns the median set-up time, scaled to the reference host.
func (b *bench) setUp(reps int) (time.Duration, error) {
	hc, err := newHostClock()
	if err != nil {
		return 0, err
	}
	defer hc.close()
	var times []time.Duration
	for i := 0; i < reps; i++ {
		hc.reset()
		for j := 0; err == nil && j < setupTicks; j++ {
			err = hc.tick()
		}
		var t time.Duration
		if err == nil {
			t, err = b.setup(hc)
		}
		for j := 0; err == nil && j < setupTicks; j++ {
			err = hc.tick()
		}
		if err != nil {
			if b.st != nil {
				b.st.stop()
			}
			return 0, err
		}
		times = append(times, scale(t, hc.factor()))
		if i < reps-1 {
			if err := b.st.stop(); err != nil {
				return 0, fmt.Errorf("stop: %w", err)
			}
			b.st = nil
		}
		// Each set-up starts from a collected heap, and so does the pass.
		runtime.GC()
	}
	sortDurations(times)
	return times[len(times)/2], nil
}

// endToEnd measures the end-to-end metrics: set-up, then one untraced
// pass of d.
func (b *bench) endToEnd(d time.Duration) (metrics, int, int, error) {
	setup, err := b.setUp(setupReps)
	if err != nil {
		return nil, 0, 0, err
	}
	p, err := b.run(d)
	if err == nil {
		err = b.checkShadowed()
	}
	if serr := b.st.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stop: %w", serr)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, 0, 0, err
	}
	n := len(p.lat)
	var lat []time.Duration
	for _, r := range p.roundLat {
		lat = append(lat, r...)
	}
	sortDurations(lat)
	// Every round sends the same requests, so a round's rate is one
	// sample of the same quantity; the median round is not moved by a
	// host stall that lasts a few rounds. Every time is scaled to the
	// reference host by the calibration ticks of its own round.
	m := metrics{}
	m.add("throughput_qps", "1/s", median(p.qps))
	m.add("latency_p50_ms", "ms", ms(percentile(lat, 0.50)))
	m.add("latency_p95_ms", "ms", windowP95(p.roundLat))
	m.add("cpu_ms_per_query", "ms", median(p.cpuPerQuery))
	m.add("setup_s", "s", setup.Seconds())
	m.add("peak_rss_mb", "MB", rss)
	fmt.Fprintf(os.Stderr, "servebench: %s: %d rounds, %d requests (%d failed) in %.2fs: %.1f/s, %.3f CPU ms each, as measured; host speed %.3f of the reference\n",
		b.w.name, p.rounds, p.attempted, p.failed, p.elapsed.Seconds(), float64(n)/p.elapsed.Seconds(), ms(p.cpu)/float64(max(n, 1)), p.host)
	fmt.Fprint(os.Stderr, classSummary(p.byClass, 8))
	return m, p.attempted, p.failed, nil
}

// classSummary lists the request classes with the highest median
// latency.
func classSummary(by map[string][]time.Duration, top int) string {
	type row struct {
		class string
		med   time.Duration
		n     int
	}
	var rows []row
	for c, d := range by {
		sortDurations(d)
		rows = append(rows, row{c, percentile(d, 0.5), len(d)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].med > rows[j].med })
	var b strings.Builder
	for i, r := range rows {
		if i == top {
			break
		}
		fmt.Fprintf(&b, "  %-44s %9.3f ms median of %d\n", r.class, ms(r.med), r.n)
	}
	return b.String()
}

// metrics is a result's metric map.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) add(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
