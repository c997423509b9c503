package experiments_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/workloads"
)

// TestComparisonRowsGolden pins the byte counts each system's migration
// reports for Fib(18) and FFT at its default size. These counts repeat
// exactly from run to run, so any change to what a system ships — its
// message layout, its codec, what it captures — shows up here as a
// changed row rather than as a quietly different paper table.
func TestComparisonRowsGolden(t *testing.T) {
	type row struct{ state, class, heap int64 }
	cases := []struct {
		w    *workloads.Workload
		n    int64
		want map[experiments.System]row
	}{
		{workloads.Fib(), 18, map[experiments.System]row{
			experiments.SysSODEE:    {69, 218, 0},
			experiments.SysGJavaMPI: {1807, 659, 32},
			experiments.SysJessica2: {189, 0, 0},
			experiments.SysXen:      {4096, 0, 16777216},
		}},
		{workloads.FFT(), workloads.FFT().DefaultN, map[experiments.System]row{
			experiments.SysSODEE:    {93, 1663, 0},
			experiments.SysGJavaMPI: {33677601, 1895, 33665056},
			experiments.SysJessica2: {78, 0, 0},
			experiments.SysXen:      {4096, 0, 16777216},
		}},
	}
	for _, c := range cases {
		for _, sys := range experiments.AllSystems {
			kr, err := experiments.RunKernel(sys, c.w, c.n, true)
			if err != nil {
				t.Fatalf("%s on %v: %v", c.w.Name, sys, err)
			}
			mm := kr.Metrics
			got := row{mm.StateBytes, mm.ClassBytes, mm.HeapBytes}
			if want := c.want[sys]; got != want {
				t.Errorf("%s on %v: state/class/heap = %d/%d/%d, want %d/%d/%d",
					c.w.Name, sys, got.state, got.class, got.heap, want.state, want.class, want.heap)
			}
			if sys == experiments.SysXen && mm.Rounds < 1 {
				t.Errorf("%s on Xen: %d pre-copy rounds, want at least 1", c.w.Name, mm.Rounds)
			}
		}
	}
}
