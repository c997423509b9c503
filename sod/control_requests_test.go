package sod_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/workloads"
	"repro/sod"
)

// TestWatchedJobCostsOneControlRequest: a watched job — Submit, Watch,
// Wait, as the benchmark's closed loop drives it — sends the daemon one
// control request. Submit opens the job's event stream, Watch takes it
// and Wait resolves from its terminal event, so neither sends opWatch
// nor opWait.
func TestWatchedJobCostsOneControlRequest(t *testing.T) {
	d, err := daemon.New(daemon.Config{ID: 1, Policy: "none"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	cl, err := sod.Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() }) //nolint:errcheck
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ops := []string{"submit", "watch", "wait", "unwatch"}
	count := func() map[string]int64 {
		snap := d.Node().Obs.Snapshot()
		out := make(map[string]int64, len(ops))
		for _, op := range ops {
			out[op] = snap.Counters[obs.Label("sod_control_requests_total", "op", op)]
		}
		return out
	}
	before := count()
	h, err := cl.Submit(ctx, "main", sod.Int(3), sod.Int(10_000))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Watch(ctx, h.ID())
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.CruncherExpected(3, 10_000); res.I != want {
		t.Fatalf("result %d, want %d", res.I, want)
	}
	terminals := 0
	for ev := range ch {
		if ev.Terminal() {
			terminals++
		}
	}
	if terminals != 1 {
		t.Fatalf("watch delivered %d terminals, want 1", terminals)
	}
	after := count()
	want := map[string]int64{"submit": 1, "watch": 0, "wait": 0, "unwatch": 0}
	for _, op := range ops {
		if got := after[op] - before[op]; got != want[op] {
			t.Errorf("sod_control_requests_total{op=%q} moved by %d, want %d", op, got, want[op])
		}
	}
}
