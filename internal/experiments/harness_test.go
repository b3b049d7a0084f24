package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"projpush/internal/engine"
)

// shape projects a series onto its schedule-independent content: titles,
// methods, widths, and per-cell measurement/timeout counts. Durations
// (and, under a shared cache, the hit/miss split between concurrent
// duplicate misses) are the only quantities allowed to differ between a
// sequential and a fanned-out sweep.
func shape(s *Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s\n", s.Title, s.XLabel)
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%g:", r.X)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %s w=%d n=%d to=%d;",
				c.Method, c.Width, len(c.Sample.Durations), c.Sample.Timeouts)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func harnessConfig(workers int, cache *engine.Cache) Config {
	return Config{
		Seed:    7,
		Reps:    3,
		Timeout: 20 * time.Second,
		Workers: workers,
		Cache:   cache,
	}
}

// TestHarnessWorkerDeterminism runs the same structured sweep
// sequentially and with a 4-worker pool, with and without a shared
// subplan cache, and checks the schedule-independent content matches
// exactly. Randomized instance generation and the SAT sweep (a fresh
// database per repetition, exercising the relation content digests) are
// covered by the second sweep.
func TestHarnessWorkerDeterminism(t *testing.T) {
	run := func(workers int, cache *engine.Cache) (*Series, *Series) {
		s1, err := StructuredScaling(harnessConfig(workers, cache), FamilyLadder, []int{4, 6})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := SATScaling(harnessConfig(workers, cache), 3, 8, []float64{2, 3})
		if err != nil {
			t.Fatal(err)
		}
		return s1, s2
	}

	for _, cached := range []bool{false, true} {
		name := "cache-off"
		if cached {
			name = "cache-on"
		}
		t.Run(name, func(t *testing.T) {
			mk := func() *engine.Cache {
				if cached {
					return engine.NewCache(0)
				}
				return nil
			}
			seq1, seq2 := run(1, mk())
			par1, par2 := run(4, mk())
			if got, want := shape(par1), shape(seq1); got != want {
				t.Fatalf("structured sweep diverged across worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", want, got)
			}
			if got, want := shape(par2), shape(seq2); got != want {
				t.Fatalf("SAT sweep diverged across worker counts:\nworkers=1:\n%s\nworkers=4:\n%s", want, got)
			}
			if cached {
				hits := int64(0)
				for _, r := range seq1.Rows {
					for _, c := range r.Cells {
						hits += c.CacheHits
					}
				}
				if hits == 0 {
					t.Fatal("cached structured sweep recorded no hits")
				}
				if !seq1.Cache || !par1.Cache {
					t.Fatal("Series.Cache flag not set on cached sweeps")
				}
			}
		})
	}
}

// TestHarnessCSVCacheColumns pins the CSV contract: cache columns appear
// exactly when the sweep ran with a cache.
func TestHarnessCSVCacheColumns(t *testing.T) {
	s, err := StructuredScaling(harnessConfig(2, engine.NewCache(0)), FamilyAugmentedPath, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	csv := CSV(s)
	if !strings.Contains(csv, "_cache_hits") || !strings.Contains(csv, "_cache_misses") {
		t.Fatalf("cached sweep CSV lacks cache columns:\n%s", csv)
	}
	s.Cache = false
	if plain := CSV(s); strings.Contains(plain, "_cache_hits") {
		t.Fatalf("uncached CSV grew cache columns:\n%s", plain)
	}
}
