// Command sodrun runs one of the built-in workloads on a simulated SOD
// cluster, optionally migrating it mid-run, and reports the result and
// migration metrics:
//
//	sodrun -workload fib -n 24
//	sodrun -workload nq -n 8 -migrate -frames 1 -flow return
//	sodrun -workload tsp -n 9 -migrate -flow total
//	sodrun -workload fft -n 32 -migrate -system gjavampi
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/workloads"
)

func main() {
	name := flag.String("workload", "fib", "workload: fib, nq, fft, tsp")
	n := flag.Int64("n", 0, "problem size (0 = workload default)")
	migrate := flag.Bool("migrate", false, "migrate once at the workload checkpoint")
	system := flag.String("system", "sodee", "system: sodee, gjavampi, jessica2, xen, jdk")
	flag.Parse()

	var w *workloads.Workload
	switch strings.ToLower(*name) {
	case "fib":
		w = workloads.Fib()
	case "nq", "nqueens":
		w = workloads.NQueens()
	case "fft":
		w = workloads.FFT()
	case "tsp":
		w = workloads.TSP()
	default:
		fmt.Fprintf(os.Stderr, "sodrun: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *n > 0 {
		w.DefaultN = *n
	}

	var sys experiments.System
	switch strings.ToLower(*system) {
	case "sodee":
		sys = experiments.SysSODEE
	case "gjavampi", "g-javampi":
		sys = experiments.SysGJavaMPI
	case "jessica2":
		sys = experiments.SysJessica2
	case "xen":
		sys = experiments.SysXen
	case "jdk":
		sys = experiments.SysJDK
	default:
		fmt.Fprintf(os.Stderr, "sodrun: unknown system %q\n", *system)
		os.Exit(2)
	}

	start := time.Now()
	var (
		kr  *experiments.KernelRun
		err error
	)
	if sys == experiments.SysJDK {
		kr, err = experiments.RunJDKReference(w, w.DefaultN)
	} else {
		kr, err = experiments.RunKernel(sys, w, w.DefaultN, *migrate)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sodrun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s(n=%d) on %v: result=%v in %v\n", w.Name, w.DefaultN, sys, kr.Result, time.Since(start).Round(time.Millisecond))
	if *migrate && sys != experiments.SysJDK {
		m := kr.Metrics
		fmt.Printf("migration: capture=%v transfer=%v restore=%v latency=%v state=%dB classes=%dB\n",
			m.Capture.Round(time.Microsecond), m.Transfer.Round(time.Microsecond),
			m.Restore.Round(time.Microsecond), m.Latency.Round(time.Microsecond),
			m.StateBytes, m.ClassBytes)
	}
}
