package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload for about a second, untraced and
// traced, and checks what the benchmark promises about its output: no
// failed operation, every metric BENCHMARK.json names present with its
// unit, and a well-formed trace. It asserts no timings.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	sodd, err := buildSodd(context.Background(), "..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 1, trace: traced}
			if traced {
				o.spans = filepath.Join(t.TempDir(), "spans.json")
			}
			var log bytes.Buffer
			rep := runWorkload(context.Background(), o, name, sodd, newProcSet(), &log)
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, log.String())
				continue
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, n)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", name, traced, n, m.Unit, unit)
				case math.IsNaN(m.Value) || m.Value < 0:
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, n, m.Value)
				}
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					if res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
					}
				}
				continue
			}
			data, err := os.ReadFile(o.spans)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("%s: trace file: %v", name, err)
			}
			if len(spans) == 0 {
				t.Errorf("%s: empty trace", name)
			}
			if err := checkSpans(spans); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestCatalogMatchesSpec keeps the metric catalog in the code and
// BENCHMARK.json in step.
func TestCatalogMatchesSpec(t *testing.T) {
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, code reports %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, code reports %v", layer, perLayer)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
		// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
		{[]float64{3, 5}, [3]float64{2.5, 4, 5.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		head        []float64
		lowerBetter bool
		want        string
	}{
		{shift(1.02), true, "unchanged"},
		{shift(1.2), true, "regressed"},
		{shift(1.2), false, "unchanged"},
		{shift(0.8), false, "regressed"},
		{noisy, true, "unresolved"},
	} {
		if got := verdict(base, c.head, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("verdict(%v, lowerBetter=%v) = %q, want %q", c.head, c.lowerBetter, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(true)
	start := testTime(0)
	root := tr.add(span{Name: "sod.wait", Start: start, Dur: 10})
	tr.add(span{Parent: root, Name: "sodee.migrate", Start: testTime(2), Dur: 4})
	tr.add(span{Parent: root, Name: "sodee.migrate", Start: testTime(4), Dur: 4})
	self := selfTimes(tr.snapshot())
	if self["sod"] != 4 || self["sodee"] != 8 {
		t.Errorf("self times %v, want sod 4 and sodee 8", self)
	}
}

func testTime(ns int) time.Time { return time.Unix(0, int64(ns)) }
