package sodee

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/preprocess"
	"repro/internal/value"
	"repro/internal/workloads"
)

// Breakpoint restore raises one InvalidStateException per restored frame.
// Those raises must reuse the node's one exception object: the heap is
// append-only, so a fresh object per frame would grow every destination
// by arrivals × frames for the life of the process.
func TestBreakpointRestoreHeapBounded(t *testing.T) {
	prog := preprocess.MustPreprocess(workloads.Cruncher(),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	c, err := NewCluster(prog, netsim.Gigabit,
		NodeConfig{ID: 1, Preloaded: true},
		NodeConfig{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := c.Nodes[1], c.Nodes[2]
	mgrs := map[int]*Manager{1: n1.Mgr, 2: n2.Mgr}

	const iters = 4_000_000 // outlives the trips (~50 ms) several times over, -race included
	job, err := n1.Mgr.StartJob("main", value.Int(3), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	hop := func(from int) {
		t.Helper()
		w := awaitWrapper(t, mgrs[from])
		if _, err := mgrs[from].MigrateSOD(w, SODOptions{NFrames: WholeStack, Dest: 3 - from, Flow: FlowReturnHome}); err != nil {
			t.Fatalf("migration %d→%d: %v", from, 3-from, err)
		}
	}
	// Baseline after the first arrival: whatever the first restore on
	// node 2 allocates once is not counted.
	hop(1)
	awaitWrapper(t, n2.Mgr)
	before := n2.VM.Heap.NumObjects()

	const arrivals = 6
	for i := 0; i < arrivals; i++ {
		hop(2)
		hop(1)
	}
	awaitWrapper(t, n2.Mgr)
	if grew := n2.VM.Heap.NumObjects() - before; grew > 1 {
		t.Errorf("node 2 heap grew by %d objects over %d two-frame restores, want O(1)", grew, arrivals)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.CruncherExpected(3, iters); res.I != want {
		t.Errorf("result = %d, want %d", res.I, want)
	}
}
