// Command bench is the repository's end-to-end benchmark. It measures
// what a user of the runtime sees — how long a job takes from submit to
// result, and how long a job is frozen while it migrates — on four
// workloads, and in a traced run the per-layer timings behind them.
//
// Run it from the repository root through its wrapper, which builds the
// benchmark and keeps every build product under .bench_build:
//
//	bash bench/run.sh --workload submit-closed --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result: a JSON object with
// correct, attempted, failed and metrics. --out writes a detailed report,
// --spans the traced run's spans, and --compare sets of reports against
// each other. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// workloadNames lists the workloads in the order an all-workloads run
// makes them.
var workloadNames = []string{"submit-closed", "offload-open", "hop-warm", "hop-churn"}

// hardLimit is the most one workload run may take after the build; a run
// still going then is killed and reported as failed.
const hardLimit = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	spans    string
	root     string
}

// report is the detailed record --out writes: the result line plus the
// distributions and counters behind it.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Result   result         `json:"result"`
	Details  map[string]any `json:"details"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var compare bool
	fs.StringVar(&o.workload, "workload", "all", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: record spans and print the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "write a detailed JSON report here (with several workloads: one file per workload, suffixed)")
	fs.StringVar(&o.spans, "spans", "", "traced run: write the recorded spans here as JSON")
	fs.StringVar(&o.root, "root", ".", "repository root (holds cmd/sodd and BENCHMARK.json); build products go under its .bench_build")
	fs.BoolVar(&compare, "compare", false, "compare reports: -compare BASE[,BASE...] HEAD[,HEAD...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if err := runCompare(fs.Args(), o.root, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: --trace takes 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	names := workloadNames
	if o.workload != "all" {
		if !slices.Contains(workloadNames, o.workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	if o.seconds <= 0 || o.seconds > 60 {
		fmt.Fprintln(stderr, "bench: --seconds must be in (0, 60]")
		return 2
	}

	ctx := context.Background()
	sodd := ""
	for _, n := range names {
		if _, ok := specs[n]; ok {
			var err error
			if sodd, err = buildSodd(ctx, o.root, filepath.Join(o.root, ".bench_build", "bin")); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			break
		}
	}
	code := 0
	for _, n := range names {
		rep := runGuarded(ctx, o, n, sodd, stdout, stderr)
		if err := writeReport(o, n, len(names) > 1, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rep.Result.Correct {
			code = 1
		}
	}
	return code
}

// runGuarded runs one workload under the hard limit: if the run wedges,
// the watchdog kills the daemons, prints a failed result and exits.
func runGuarded(ctx context.Context, o options, name, sodd string, stdout, stderr io.Writer) *report {
	ps := newProcSet()
	var once sync.Once
	watchdog := time.AfterFunc(hardLimit, func() {
		once.Do(func() {
			ps.killAll()
			fmt.Fprintf(stderr, "bench: %s still running after %s; giving up\n", name, hardLimit)
			line, _ := json.Marshal(result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}})
			fmt.Fprintln(stdout, string(line))
			os.Exit(1)
		})
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(ctx, hardLimit)
	defer cancel()
	rep := runWorkload(ctx, o, name, sodd, ps, stderr)
	once.Do(func() {}) // the result is final; the watchdog may no longer print
	return rep
}

// runWorkload runs one measurement and assembles its report.
func runWorkload(ctx context.Context, o options, name, sodd string, ps *procSet, stderr io.Writer) *report {
	window := time.Duration(o.seconds * float64(time.Second))
	e := &env{
		seed: o.seed, window: window, tr: newTracer(o.trace), ps: ps, sodd: sodd,
		ls: &layerStats{}, out: &outcome{}, details: map[string]any{},
	}
	var err error
	switch name {
	case "submit-closed", "offload-open":
		err = runCluster(ctx, e, specs[name])
	case "hop-warm":
		err = runHop(ctx, e, hotProgram())
	case "hop-churn":
		err = runHop(ctx, e, churnProgram())
	}
	var probes probeResults
	if err == nil && o.trace {
		probes, err = runProbes(ctx, e)
	}
	res := result{
		Correct:   err == nil && e.out.failed == 0 && e.out.attempted > 0,
		Attempted: e.out.attempted,
		Failed:    e.out.failed,
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		e.details["error"] = err.Error()
		res.Failed++
		res.Attempted++
	}
	for _, msg := range e.out.errs {
		fmt.Fprintf(stderr, "bench: %s: %s\n", name, msg)
	}
	spans := e.tr.snapshot()
	if o.trace {
		res.Metrics = fill(perLayer, perLayerValues(e.out, e.ls, probes, window))
		if err := checkSpans(spans); err != nil {
			fmt.Fprintf(stderr, "bench: %s: trace: %v\n", name, err)
			res.Correct = false
		}
		if o.spans != "" {
			if err := writeSpans(o.spans, spans); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				res.Correct = false
			}
		}
	} else {
		res.Metrics = fill(endToEnd, endToEndValues(e.out, window))
	}
	addDetails(e, spans)
	printSummary(stderr, name, res)
	return &report{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Result: res, Details: e.details}
}

// runProbes makes the traced run's layer probes.
func runProbes(ctx context.Context, e *env) (probeResults, error) {
	var p probeResults
	var err error
	if p.instrPerS, err = vmProbe(e.tr); err != nil {
		return p, fmt.Errorf("vm probe: %w", err)
	}
	if p.hot, p.churn, err = serialProbes(e.tr); err != nil {
		return p, fmt.Errorf("serial probe: %w", err)
	}
	if p.net, err = netsimProbe(e.tr); err != nil {
		return p, fmt.Errorf("netsim probe: %w", err)
	}
	e.ls.mu.Lock()
	few := len(e.ls.capture) < 10
	e.ls.mu.Unlock()
	e.details["migration_phases_from"] = "window"
	if few {
		e.details["migration_phases_from"] = "probe"
		if p.mig, err = migrationProbe(ctx); err != nil {
			return p, fmt.Errorf("migration probe: %w", err)
		}
	}
	return p, nil
}

func addDetails(e *env, spans []span) {
	e.out.mu.Lock()
	defer e.out.mu.Unlock()
	e.details["setup_s"] = e.out.setup
	e.details["op_latency_ms"] = e.out.lat.summarize()
	e.details["ops_in_window"] = e.out.opsDone
	e.details["ops_per_second"] = e.out.perSecond
	if len(e.out.errs) > 0 {
		e.details["errors"] = e.out.errs
	}
	if spans != nil {
		self := map[string]float64{}
		for layer, d := range selfTimes(spans) {
			self[layer] = d.Seconds() * 1000
		}
		e.details["self_time_ms"] = self
		e.details["spans"] = len(spans)
		e.ls.mu.Lock()
		e.details["hop_latency_us"] = map[string]summary{
			"capture": e.ls.capture.summarize(), "transfer": e.ls.transfer.summarize(),
			"restore": e.ls.restore.summarize(), "unaccounted": e.ls.unaccounted.summarize(),
		}
		e.ls.mu.Unlock()
	}
}

func writeReport(o options, name string, several bool, rep *report) error {
	if o.out == "" {
		return nil
	}
	path := o.out
	if several {
		ext := filepath.Ext(path)
		path = strings.TrimSuffix(path, ext) + "." + name + ext
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// printSummary writes a human-readable table of the result to stderr.
func printSummary(w io.Writer, name string, res result) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
}
