package experiments

import (
	"fmt"
	"strings"
	"time"
)

// ms renders a duration as milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// sec renders a duration as seconds with three decimals.
func sec(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// RenderTable1 formats Table I in the paper's layout.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("TABLE I: PROGRAM CHARACTERISTICS (sizes scaled; paper n in brackets)\n")
	fmt.Fprintf(&b, "%-5s %-50s %10s %4s %12s\n", "App", "Description", "n (paper)", "h", "F (bytes)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-50s %5d (%3d) %4d %12d\n", r.App, r.Descr, r.N, r.PaperN, r.H, r.F)
	}
	return b.String()
}

// RenderTable2 formats Table II.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("TABLE II: EXECUTION TIME TAKEN ON DIFFERENT SYSTEMS (seconds)\n")
	fmt.Fprintf(&b, "%-5s %8s |", "App", "JDK")
	for _, sys := range AllSystems {
		fmt.Fprintf(&b, " %9s: %8s %8s |", sys, "no mig", "mig")
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %8s |", r.App, sec(r.JDK))
		for _, sys := range AllSystems {
			c := r.Cells[sys]
			fmt.Fprintf(&b, " %9s: %8s %8s |", "", sec(c.NoMig), sec(c.Mig))
		}
		fmt.Fprintf(&b, "  C0=%.2f%% C1=%.2f%%\n", r.C0, r.C1)
	}
	return b.String()
}

// RenderTable3 formats Table III.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("TABLE III: MIGRATION OVERHEAD OF DIFFERENT SYSTEMS (ms, % of no-mig time)\n")
	fmt.Fprintf(&b, "%-5s", "App")
	for _, sys := range AllSystems {
		fmt.Fprintf(&b, " %22s", sys)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s", r.App)
		for _, sys := range AllSystems {
			fmt.Fprintf(&b, " %12s (%6.2f%%)", ms(r.Overhead[sys]), r.Percent[sys])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderTable4 formats Table IV.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("TABLE IV: MIGRATION LATENCY IN DIFFERENT SYSTEMS (ms: capture / transfer / restore = total)\n")
	systems := []System{SysSODEE, SysGJavaMPI, SysJessica2}
	fmt.Fprintf(&b, "%-5s", "App")
	for _, sys := range systems {
		fmt.Fprintf(&b, " %34s", sys)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s", r.App)
		for _, sys := range systems {
			m := r.Parts[sys]
			fmt.Fprintf(&b, "   %7s /%8s /%7s =%8s",
				ms(m.Capture), ms(m.Transfer), ms(m.Restore), ms(m.Latency))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderTable5 formats Table V.
func RenderTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("TABLE V: COMPARISON OF OBJECT FAULTING METHODS (ns per access)\n")
	fmt.Fprintf(&b, "%-13s %10s %10s %10s %12s %12s\n",
		"Access Type", "Original", "Faulting", "Checking", "Fault slow%", "Check slow%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %10.2f %10.2f %10.2f %11.2f%% %11.2f%%\n",
			r.Access, r.OriginalNs, r.FaultingNs, r.CheckingNs, r.FaultSlowdown, r.CheckSlowdown)
	}
	return b.String()
}

// RenderTable6 formats Table VI.
func RenderTable6(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("TABLE VI: PERFORMANCE GAIN ON MIGRATION SYSTEMS (NFS text search)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %14s %10s\n", "System", "no mig (s)", "mig (s)", "on server (s)", "gain")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10v %12s %12s %14s %9.2f%%\n", r.System, sec(r.NoMig), sec(r.Mig), sec(r.OnServer), r.Gain)
	}
	return b.String()
}

// RenderRoaming formats the §IV.C roaming result.
func RenderRoaming(r *RoamResult) string {
	return fmt.Sprintf("ROAMING (§IV.C): %d servers, %d migrations: no-mig %s s -> roaming %s s, speedup %.2fx\n",
		r.Servers, r.Migrations, sec(r.NoMig), sec(r.Roaming), r.Speedup)
}

// RenderTable7 formats Table VII.
func RenderTable7(rows []Table7Row) string {
	var b strings.Builder
	b.WriteString("TABLE VII: MIGRATION LATENCY VS AVAILABLE BANDWIDTH (device offload, ms)\n")
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %10s %12s\n",
		"kbps", "capture", "t2 (state)", "t3 (class)", "restore", "latency")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %10s %12s %12s %10s %12s\n",
			r.BandwidthKbps, ms(r.Capture), ms(r.TransferState), ms(r.TransferClass), ms(r.Restore), ms(r.Latency))
	}
	return b.String()
}

// RenderFig5 formats the code-size comparison.
func RenderFig5(f Fig5Sizes) string {
	return fmt.Sprintf("FIG 5: CODE SIZE of %s: original %d B, status checks %d B, fault handlers %d B (+%.0f%% over checks)\n",
		f.Method, f.Original, f.Checking, f.Faulting,
		float64(f.Faulting-f.Checking)/float64(f.Checking)*100)
}
