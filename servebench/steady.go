package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs the workload n times, each in its own process with
// seed base+i, and prints for each end-to-end metric the median, the
// quartiles (as Python's statistics.quantiles(values, n=4) computes
// them) and the spread Q3-Q1 as a share of the median, against the
// metric's bound in BENCHMARK.json.
func steadiness(name string, base int64, n int, seconds float64) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []string
	for i := 0; i < n; i++ {
		seed := base + int64(i)
		cmd := exec.Command(os.Args[0], "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: wrong answer", seed)
		}
		failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		keys := make([]string, 0, len(res.Metrics))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(os.Stderr, "servebench: seed %d:", seed)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, " %s=%.4g", k, res.Metrics[k].Value)
		}
		fmt.Fprintln(os.Stderr)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s: %d runs, seeds %d..%d, %gs each; failed/attempted: %s\n",
		name, n, base, base+int64(n)-1, seconds, strings.Join(failShares, " "))
	fmt.Fprintf(&b, "%-18s %-5s %12s %12s %12s %8s %7s %s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound", "spread/bound")
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := values[k]
		q := quartiles(v)
		spread := (q[2] - q[0]) / q[1]
		bound, ok := bounds[k]
		rel := "-"
		if ok && bound > 0 {
			rel = fmt.Sprintf("%.2f", spread/bound)
		}
		fmt.Fprintf(&b, "%-18s %-5s %12.4f %12.4f %12.4f %8.4f %7.3f %s\n", k, units[k], q[0], q[1], q[2], spread, bound, rel)
	}
	_, err = os.Stdout.Write(b.Bytes())
	return err
}

// quartiles returns the three cut points of statistics.quantiles(v, n=4)
// with the default exclusive method; v needs at least two values.
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	var q [3]float64
	ld, m := len(d), len(d)+1
	if ld < 2 {
		if ld == 1 {
			return [3]float64{d[0], d[0], d[0]}
		}
		return q
	}
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
