package experiments_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/workloads"
)

// The experiment drivers are exercised at reduced problem sizes here; the
// benchmark harness runs them at the full scaled sizes.

func TestRunKernelAllSystemsAgree(t *testing.T) {
	w := workloads.Fib()
	jdk, err := experiments.RunJDKReference(w, 18)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range experiments.AllSystems {
		for _, mig := range []bool{false, true} {
			kr, err := experiments.RunKernel(sys, w, 18, mig)
			if err != nil {
				t.Fatalf("%v mig=%v: %v", sys, mig, err)
			}
			if !kr.Result.Equal(jdk.Result) {
				t.Errorf("%v mig=%v: result %v, want %v", sys, mig, kr.Result, jdk.Result)
			}
			if mig && sys != experiments.SysXen && kr.Metrics.StateBytes == 0 {
				t.Errorf("%v: migrated run should record state bytes", sys)
			}
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all kernels")
	}
	rows, err := experiments.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	byApp := map[string]experiments.Table1Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	// Fib and NQ recurse: h scales with n. FFT/TSP have shallow stacks but
	// FFT carries the big static footprint.
	if byApp["Fib"].H < int(byApp["Fib"].N) {
		t.Errorf("Fib h=%d should be at least n=%d", byApp["Fib"].H, byApp["Fib"].N)
	}
	if byApp["FFT"].F < workloads.FFTExtraStaticFloats*8 {
		t.Errorf("FFT F=%d should include the %d-byte static workspace",
			byApp["FFT"].F, workloads.FFTExtraStaticFloats*8)
	}
	if byApp["FFT"].F <= byApp["TSP"].F || byApp["FFT"].F <= byApp["Fib"].F {
		t.Error("FFT should have the largest footprint")
	}
	if byApp["TSP"].H >= byApp["Fib"].H {
		t.Error("TSP stack should be shallower than Fib's")
	}
}

func TestTable5Shapes(t *testing.T) {
	// The paper's claim, on counted quantities: the status check adds
	// instructions to every access, object faulting adds none on local
	// objects. Instruction counts are exact, so no CPU contention can
	// invert them; the nanosecond columns stay for sodbench.
	rows, err := experiments.Table5(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.OriginalInstr < 1 {
			t.Errorf("%s: %.3f instructions per access counted for the original", r.Access, r.OriginalInstr)
		}
		if extra := r.CheckingInstr - r.OriginalInstr; extra < 1 {
			t.Errorf("%s: status checking adds %.3f instructions per access, want at least 1", r.Access, extra)
		}
		// Setup outside the loop amortizes to a few ten-thousandths.
		if extra := r.FaultingInstr - r.OriginalInstr; extra > 0.01 || extra < -0.01 {
			t.Errorf("%s: object faulting adds %.3f instructions per local access, want 0", r.Access, extra)
		}
	}
}

func TestFig5Ordering(t *testing.T) {
	f, err := experiments.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if !(f.Original < f.Checking && f.Checking < f.Faulting) {
		t.Errorf("size ordering violated: %+v", f)
	}
}

func TestTable7SingleBandwidthPoint(t *testing.T) {
	row, err := experiments.Table7(384)
	if err != nil {
		t.Fatal(err)
	}
	if row.Found != 4 {
		t.Errorf("found %d beach photos on device, want 4", row.Found)
	}
	if row.TransferState <= 0 {
		t.Error("state transfer should be non-zero")
	}
	if row.Latency < row.TransferState {
		t.Error("latency should include transfer")
	}
}

func TestTable7BandwidthShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple shaped transfers")
	}
	slow, err := experiments.Table7(50)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := experiments.Table7(764)
	if err != nil {
		t.Fatal(err)
	}
	// Lower bandwidth → longer latency, dominated by transfer; capture and
	// restore are bandwidth-independent (Table VII's observation).
	if slow.Latency <= fast.Latency {
		t.Errorf("50kbps latency (%v) should exceed 764kbps (%v)", slow.Latency, fast.Latency)
	}
	if slow.TransferState+slow.TransferClass <= fast.TransferState+fast.TransferClass {
		t.Error("transfer time should grow as bandwidth shrinks")
	}
}

func TestRoamingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node shaped run")
	}
	r, err := experiments.Roaming()
	if err != nil {
		t.Fatal(err)
	}
	if r.Migrations != experiments.RoamServers {
		t.Errorf("performed %d migrations, want %d", r.Migrations, experiments.RoamServers)
	}
	if r.Speedup < 1.5 {
		t.Errorf("roaming speedup %.2f should be well above 1 (paper: 3.39)", r.Speedup)
	}
}

func TestRenderersDoNotPanic(t *testing.T) {
	rows5, err := experiments.Table5(100_000)
	if err != nil {
		t.Fatal(err)
	}
	_ = experiments.RenderTable5(rows5)
	f, err := experiments.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	_ = experiments.RenderFig5(f)
}
