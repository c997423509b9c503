// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (§IV). Each benchmark runs its experiment once
// per iteration and reports the headline quantities as custom metrics;
// the full formatted tables print via b.Log on the first iteration (run
// with -v to see them) and through cmd/sodbench.
//
//	go test -bench=. -benchmem -benchtime=1x
//
// is the intended invocation: every experiment is a macro-benchmark with
// internal repetition where averaging matters.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
)

// logOnce prints a rendered table on the first iteration only.
func logOnce(b *testing.B, i int, s string) {
	b.Helper()
	if i == 0 {
		b.Log("\n" + s)
	}
}

// BenchmarkTable1Characteristics regenerates Table I (program
// characteristics: n, stack height h, field footprint F).
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, experiments.RenderTable1(rows))
		var maxH int
		for _, r := range rows {
			if r.H > maxH {
				maxH = r.H
			}
		}
		b.ReportMetric(float64(maxH), "max-stack-h")
	}
}

// BenchmarkTable2ExecutionTime regenerates Table II (execution time on
// JDK vs the four migration systems, with and without migration) and, as
// derived views, Table III (migration overhead) and Table IV (latency
// breakdown).
func BenchmarkTable2ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, experiments.RenderTable2(t2))
		logOnce(b, i, experiments.RenderTable3(experiments.Table3(t2)))
		logOnce(b, i, experiments.RenderTable4(experiments.Table4(t2)))

		// Headline shape: SOD migration overhead vs the others on Fib.
		for _, r := range t2 {
			if r.App != "Fib" {
				continue
			}
			sod := r.Cells[experiments.SysSODEE]
			xen := r.Cells[experiments.SysXen]
			b.ReportMetric(float64((sod.Mig - sod.NoMig).Milliseconds()), "fib-sod-overhead-ms")
			b.ReportMetric(float64((xen.Mig - xen.NoMig).Milliseconds()), "fib-xen-overhead-ms")
		}
	}
}

// BenchmarkTable3Overhead regenerates Table III standalone (single
// workload, quick shape check: SOD's overhead must undercut Xen's).
func BenchmarkTable3Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := quickKernel()
		sod, err := migOverhead(experiments.SysSODEE, w)
		if err != nil {
			b.Fatal(err)
		}
		xen, err := migOverhead(experiments.SysXen, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sod, "sod-overhead-ms")
		b.ReportMetric(xen, "xen-overhead-ms")
	}
}

// BenchmarkTable4LatencyBreakdown regenerates Table IV standalone for the
// quick kernel: capture/transfer/restore of SOD vs G-JavaMPI.
func BenchmarkTable4LatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := quickKernel()
		sod, err := experiments.RunKernel(experiments.SysSODEE, w, w.DefaultN, true)
		if err != nil {
			b.Fatal(err)
		}
		gj, err := experiments.RunKernel(experiments.SysGJavaMPI, w, w.DefaultN, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sod.Metrics.Latency.Microseconds())/1000, "sod-latency-ms")
		b.ReportMetric(float64(gj.Metrics.Latency.Microseconds())/1000, "gjavampi-latency-ms")
		b.ReportMetric(float64(sod.Metrics.StateBytes), "sod-state-bytes")
		b.ReportMetric(float64(gj.Metrics.StateBytes), "gjavampi-state-bytes")
	}
}

// BenchmarkTable5ObjectFaulting regenerates Table V (object faulting vs
// status checking on local objects).
func BenchmarkTable5ObjectFaulting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(3_000_000)
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, experiments.RenderTable5(rows))
		for _, r := range rows {
			if r.Access == "Field Read" {
				b.ReportMetric(r.FaultSlowdown, "fault-read-slowdown-%")
				b.ReportMetric(r.CheckSlowdown, "check-read-slowdown-%")
			}
		}
	}
}

// BenchmarkTable6LocalityGain regenerates Table VI (locality gain of the
// NFS text search under SODEE / JESSICA2 / Xen migration).
func BenchmarkTable6LocalityGain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table6()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, experiments.RenderTable6(rows))
		for _, r := range rows {
			switch r.System {
			case experiments.SysSODEE:
				b.ReportMetric(r.Gain, "sodee-gain-%")
			case experiments.SysJessica2:
				b.ReportMetric(r.Gain, "jessica2-gain-%")
			case experiments.SysXen:
				b.ReportMetric(r.Gain, "xen-gain-%")
			}
		}
	}
}

// BenchmarkRoamingSpeedup regenerates the §IV.C ten-server roaming
// experiment (paper speedup: 3.39×).
func BenchmarkRoamingSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Roaming()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, experiments.RenderRoaming(r))
		b.ReportMetric(r.Speedup, "speedup-x")
	}
}

// BenchmarkTable7Bandwidth regenerates Table VII (migration latency vs
// available bandwidth for device offload).
func BenchmarkTable7Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table7All()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, experiments.RenderTable7(rows))
		b.ReportMetric(float64(rows[0].Latency.Microseconds())/1000, "latency-50kbps-ms")
		b.ReportMetric(float64(rows[len(rows)-1].Latency.Microseconds())/1000, "latency-764kbps-ms")
	}
}

// BenchmarkFig5CodeSize regenerates the Fig 5 code-size comparison.
func BenchmarkFig5CodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		logOnce(b, i, experiments.RenderFig5(f))
		b.ReportMetric(float64(f.Original), "orig-bytes")
		b.ReportMetric(float64(f.Checking), "check-bytes")
		b.ReportMetric(float64(f.Faulting), "fault-bytes")
	}
}
