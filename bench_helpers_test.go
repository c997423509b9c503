package repro_test

import (
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// quickKernel returns a reduced-size Fib for the standalone Table III/IV
// shape benchmarks (the full Table II benchmark covers all kernels).
func quickKernel() *workloads.Workload {
	w := workloads.Fib()
	w.DefaultN = 24
	return w
}

// migOverhead returns (mig − no-mig) in milliseconds for one system.
func migOverhead(sys experiments.System, w *workloads.Workload) (float64, error) {
	noMig, err := experiments.RunKernel(sys, w, w.DefaultN, false)
	if err != nil {
		return 0, err
	}
	mig, err := experiments.RunKernel(sys, w, w.DefaultN, true)
	if err != nil {
		return 0, err
	}
	ov := mig.Elapsed - noMig.Elapsed
	if ov < 0 {
		ov = 0
	}
	return float64(ov.Microseconds()) / 1000, nil
}
