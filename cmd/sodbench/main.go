// Command sodbench regenerates the paper's evaluation tables and figures
// on demand:
//
//	sodbench -table all          # everything (several minutes)
//	sodbench -table 2            # Table II (+ derived III & IV)
//	sodbench -table 5            # the object-faulting microbenchmark
//	sodbench -table roam         # the §IV.C roaming experiment
//	sodbench -table fig5         # the code-size comparison
//	sodbench -table elastic      # adaptive offload vs no-migration vs hand placement
//	sodbench -table transport    # migration cost: simulated fabric vs TCP loopback
//	sodbench -table steal        # work stealing: push-only vs push+steal makespan
//	sodbench -table workflow     # forward chains vs return-home on WAN links
//	sodbench -table swarm        # control-plane load: 1k clients, crash mid-load
//	sodbench -table wire         # migration wire format: full-state vs delta
//
// The swarm table also writes BENCH_swarm.json (see -json/-out) and can
// gate CI: -baseline FILE exits non-zero when sustained jobs/sec drops
// more than 30% below the committed baseline. The wire table does the
// same with BENCH_wire.json (-wire-out), gating on warm-hop bytes and
// capture→resume latency.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1,2,3,4,5,6,7,roam,fig5,elastic,transport,steal,workflow,all")
	elasticJobs := flag.Int("elastic-jobs", 0, "elastic: burst size (0 = default 8)")
	elasticIters := flag.Int64("elastic-iters", 0, "elastic: iterations per job (0 = default)")
	transportTrips := flag.Int("transport-trips", 0, "transport: migrations per fabric (0 = default 12)")
	stealJobs := flag.Int("steal-jobs", 0, "steal: burst size (0 = default 8)")
	stealIters := flag.Int64("steal-iters", 0, "steal: iterations per job (0 = default)")
	wfJobs := flag.Int("workflow-jobs", 0, "workflow: burst size (0 = default 6)")
	wfIters := flag.Int64("workflow-iters", 0, "workflow: stage2 iterations per job (0 = default)")
	wfLatency := flag.Int("workflow-latency", 0, "workflow: one-way WAN latency in ms (0 = default 8)")
	swarmWorkers := flag.Int("swarm-workers", 0, "swarm: concurrent clients (0 = default 1000, -short 200)")
	swarmJobs := flag.Int("swarm-jobs", 0, "swarm: jobs per client (0 = default 3)")
	swarmIters := flag.Int64("swarm-iters", 0, "swarm: iterations per job (0 = default 8000)")
	short := flag.Bool("short", false, "swarm: CI smoke scale")
	jsonOut := flag.Bool("json", false, "swarm: write the report to -out and print it as JSON")
	outPath := flag.String("out", "BENCH_swarm.json", "swarm: report path for -json")
	baseline := flag.String("baseline", "", "swarm: committed baseline report; exit non-zero when jobs/sec drops >30% below it")
	metricsOut := flag.String("metrics-out", "", "swarm: write each run's metrics-registry snapshot (per fabric) to this JSON file")
	wireTrips := flag.Int("wire-trips", 0, "wire: migrations per (fabric, mode) run (0 = default 12, -short 6)")
	wireIters := flag.Int64("wire-iters", 0, "wire: crunch iterations per job (0 = default)")
	wireOut := flag.String("wire-out", "BENCH_wire.json", "wire: report path for -json")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *table != "all" && *table != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "sodbench: table %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("1", func() error {
		rows, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable1(rows))
		return nil
	})

	// Tables II, III and IV share the same measured runs.
	wantT2 := *table == "all" || *table == "2" || *table == "3" || *table == "4"
	if wantT2 {
		t2, err := experiments.Table2()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sodbench: table 2: %v\n", err)
			os.Exit(1)
		}
		if *table == "all" || *table == "2" {
			fmt.Print(experiments.RenderTable2(t2))
		}
		if *table == "all" || *table == "3" {
			fmt.Print(experiments.RenderTable3(experiments.Table3(t2)))
		}
		if *table == "all" || *table == "4" {
			fmt.Print(experiments.RenderTable4(experiments.Table4(t2)))
		}
	}

	run("5", func() error {
		rows, err := experiments.Table5(3_000_000)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable5(rows))
		return nil
	})
	run("6", func() error {
		rows, err := experiments.Table6()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable6(rows))
		return nil
	})
	run("roam", func() error {
		r, err := experiments.Roaming()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderRoaming(r))
		return nil
	})
	run("7", func() error {
		rows, err := experiments.Table7All()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTable7(rows))
		return nil
	})
	run("fig5", func() error {
		f, err := experiments.Fig5()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig5(f))
		return nil
	})
	run("transport", func() error {
		rows, err := experiments.Transport(experiments.TransportConfig{
			Trips: *transportTrips,
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderTransport(rows))
		return nil
	})
	run("steal", func() error {
		rows, err := experiments.Steal(experiments.StealConfig{
			Jobs: *stealJobs, Iters: *stealIters,
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderSteal(rows))
		return nil
	})
	run("workflow", func() error {
		rows, err := experiments.Workflow(experiments.WorkflowConfig{
			Jobs: *wfJobs, Iters: *wfIters, LatencyMs: *wfLatency,
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderWorkflow(rows))
		return nil
	})
	run("elastic", func() error {
		rows, err := experiments.Elastic(experiments.ElasticConfig{
			Jobs: *elasticJobs, Iters: *elasticIters,
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderElastic(rows))
		return nil
	})
	// The swarm benchmark is opt-in ("-table swarm"), not part of "all":
	// it holds a thousand clients open and is a load test, not a paper
	// table.
	// The wire benchmark is opt-in like swarm: it is a regression gate for
	// the migration fast path, not a paper table.
	if *table == "wire" {
		rep, err := experiments.Wire(experiments.WireConfig{
			Trips: *wireTrips, Iters: *wireIters, Short: *short,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sodbench: table wire: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := experiments.WriteWireJSON(rep, *wireOut); err != nil {
				fmt.Fprintf(os.Stderr, "sodbench: write %s: %v\n", *wireOut, err)
				os.Exit(1)
			}
			data, _ := json.MarshalIndent(rep, "", "  ")
			fmt.Println(string(data))
		} else {
			fmt.Print(experiments.RenderWire(rep))
		}
		if *baseline != "" {
			if err := experiments.CheckWireRegression(rep, *baseline, 0.30); err != nil {
				fmt.Fprintf(os.Stderr, "sodbench: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *table == "swarm" {
		rep, err := experiments.Swarm(experiments.SwarmConfig{
			Workers:       *swarmWorkers,
			JobsPerWorker: *swarmJobs,
			Iters:         *swarmIters,
			Short:         *short,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sodbench: table swarm: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := experiments.WriteSwarmJSON(rep, *outPath); err != nil {
				fmt.Fprintf(os.Stderr, "sodbench: write %s: %v\n", *outPath, err)
				os.Exit(1)
			}
			data, _ := json.MarshalIndent(rep, "", "  ")
			fmt.Println(string(data))
		} else {
			fmt.Print(experiments.RenderSwarm(rep))
		}
		if *metricsOut != "" {
			// One snapshot per run, keyed the way the table labels rows —
			// the instrumentation view of the same load the report curves.
			snaps := make(map[string]any, len(rep.Rows))
			for _, row := range rep.Rows {
				if row.Load == nil || row.Load.Metrics == nil {
					continue
				}
				key := row.Fabric
				if row.Crashed != 0 {
					key += "+crash"
				}
				snaps[key] = row.Load.Metrics
			}
			data, err := json.MarshalIndent(snaps, "", "  ")
			if err == nil {
				err = os.WriteFile(*metricsOut, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "sodbench: write %s: %v\n", *metricsOut, err)
				os.Exit(1)
			}
		}
		if *baseline != "" {
			if err := experiments.CheckSwarmRegression(rep, *baseline, 0.30); err != nil {
				fmt.Fprintf(os.Stderr, "sodbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
