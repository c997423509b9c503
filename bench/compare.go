package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var errUsage = errors.New("usage: bench -compare BASE[,BASE...] HEAD[,HEAD...]")

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads printed here match a Python check of the same reports.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	n := len(s)
	if n == 0 {
		return q
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	// Clamping j keeps the indexes valid; for n = 2 delta then falls
	// outside [0, 4] and the cut points extrapolate, as Python's do.
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// loadReports reads comma-separated report files and groups each
// metric's values by workload.
func loadReports(list string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Workload == "" {
			return nil, fmt.Errorf("%s: not a report written by -out", path)
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Result.Metrics {
			out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
		}
	}
	return out, nil
}

// verdict classifies a metric's change from base to head under its
// bound. A spread (quartile distance over median) wider than the bound
// on either side leaves the change unresolved, unless every head run
// beats, or every head run loses to, every base run.
func verdict(base, head []float64, lowerBetter bool, bound float64) string {
	if len(base) == 0 || len(head) == 0 {
		return "missing"
	}
	qb, qh := quartiles(base), quartiles(head)
	worse := (qh[1] - qb[1]) / qb[1]
	if !lowerBetter {
		worse = -worse
	}
	spread := max((qb[2]-qb[0])/qb[1], (qh[2]-qh[0])/qh[1])
	if spread > bound {
		switch {
		case separated(head, base, lowerBetter):
			return "unchanged (every head run better)"
		case separated(base, head, lowerBetter):
			return "regressed (every head run worse)"
		}
		return "unresolved"
	}
	if worse > bound {
		return "regressed"
	}
	return "unchanged"
}

// separated reports whether every value in a is better than every value in b.
func separated(a, b []float64, lowerBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (lowerBetter && x >= y) || (!lowerBetter && x <= y) {
				return false
			}
		}
	}
	return true
}

// runCompare prints, per workload and metric, each side's median and
// quartiles and the verdict under the metric's bound.
func runCompare(args []string, root string, w io.Writer) error {
	if len(args) != 2 {
		return errUsage
	}
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	base, err := loadReports(args[0])
	if err != nil {
		return err
	}
	head, err := loadReports(args[1])
	if err != nil {
		return err
	}
	type row struct {
		name, unit, better string
		bound              float64
	}
	var rows []row
	for _, m := range spec.EndToEnd {
		rows = append(rows, row{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range spec.PerLayer {
		rows = append(rows, row{m.Name, m.Unit, m.Better, 0})
	}
	fmt.Fprintf(w, "%-14s %-32s %-32s %-32s %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "verdict")
	for _, wl := range sortedKeys(base) {
		for _, r := range rows {
			b, h := base[wl][r.name], head[wl][r.name]
			if len(b) == 0 && len(h) == 0 {
				continue
			}
			v := "per-layer (no bound)"
			if r.bound > 0 {
				v = verdict(b, h, r.better == "lower", r.bound)
			}
			fmt.Fprintf(w, "%-14s %-32s %-32s %-32s %s\n", wl, r.name+" ("+r.unit+")", describe(b), describe(h), v)
		}
	}
	return nil
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q[1], q[0], q[2], len(xs))
}
