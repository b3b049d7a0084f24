// Command servebench is the served-path benchmark: it builds a
// workload's resident database from a seed, starts projpushd's serving
// stack in process on loopback (a single server, or a coordinator with
// three workers), and drives it with the repository's own client as a
// closed loop with one client over a request sequence drawn from the
// seed. Every answer is checked against a reference that shares no code
// with the engine.
//
//	servebench --workload paper-3color --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones (throughput, latency, CPU per query, set-up time, peak
// RSS), times scaled to a reference host speed (see hostClock); with
// --trace 1 they are the per-layer ones from a traced run, whose spans
// are written to --tracedir. --steady N runs the workload N times, each
// with another seed, and prints each end-to-end metric's median,
// quartiles and spread against its bound in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"projpush/internal/server"
)

// result is the line the benchmark ends with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: paper-3color, resident-joins or fleet-cached")
		seed     = flag.Int64("seed", 1, "seed the workload's database and request sequence are drawn from")
		seconds  = flag.Float64("seconds", 20, "length of the measured pass, in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		traceDir = flag.String("tracedir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
		steady   = flag.Int("steady", 0, "run the workload this many times, seeds seed..seed+N-1, and report each metric's spread")
	)
	flag.Parse()
	d := time.Duration(*seconds * float64(time.Second))
	if *name == "" || d <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need --workload, --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(*name, *seed, *steady, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	// One core: client and server then share one Go scheduler thread,
	// so a run measures the served path and not how the host schedules
	// the process's threads. On a 2-vCPU VM with a busy loop holding
	// one vCPU, two threads cost paper-3color a fifth of its
	// throughput, and one thread cost nothing.
	runtime.GOMAXPROCS(1)
	var tracePath string
	if *trace == 1 {
		tracePath = filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	}
	res, err := runWorkload(*name, *seed, d, tracePath, nil)
	if errors.Is(err, errWrong) {
		fmt.Fprintln(os.Stderr, "servebench: first mismatch:", err)
		printResult(res)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	printResult(res)
}

// runWorkload makes one run. An empty tracePath measures the end-to-end
// metrics; otherwise the run is traced. A wrong answer returns an error
// matching errWrong, with a result whose Correct is false.
func runWorkload(name string, seed int64, d time.Duration, tracePath string, mutate func(*request, *server.Response)) (result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return result{}, err
	}
	b := &bench{w: w, mutate: mutate}
	b.prepare()
	var res result
	if tracePath == "" {
		res.Metrics, res.Attempted, res.Failed, err = b.endToEnd(d)
	} else {
		res.Metrics, res.Attempted, res.Failed, err = b.layers(d, tracePath, newHeader(name, seed, d))
	}
	if errors.Is(err, errWrong) {
		return result{Correct: false, Attempted: max(res.Attempted, 1), Metrics: metrics{}}, err
	}
	res.Correct = err == nil
	return res, err
}

func printResult(r result) {
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
