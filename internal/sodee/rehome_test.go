package sodee

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/netsim"
	"repro/internal/preprocess"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func rehomeCluster(t *testing.T, prog *bytecode.Program) *Cluster {
	t.Helper()
	c, err := NewCluster(preprocess.MustPreprocess(prog,
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true}),
		netsim.Gigabit,
		NodeConfig{ID: 1, Preloaded: true},
		NodeConfig{ID: 2, Preloaded: true},
		NodeConfig{ID: 3, Preloaded: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFirstHopCarriesRehomeFallback: a job migrated the moment it starts
// must ship its re-homing fallback on that very first hop — the origin
// shadow replication is joined before the stack leaves, so no hop of a
// home-grown job travels without the successor's address.
func TestFirstHopCarriesRehomeFallback(t *testing.T) {
	c := rehomeCluster(t, workloads.CruncherWithMarker("hold"))
	n1, n3 := c.Nodes[1], c.Nodes[3]
	// Jobs hold at their last statement on node 3 until released, so
	// every migrated-in wrapper is still there to inspect.
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	noop := func(*vm.Thread, []value.Value) (value.Value, *vm.Raised) { return value.Value{}, nil }
	n1.VM.BindNative("hold", noop)
	c.Nodes[2].VM.BindNative("hold", noop)
	n3.VM.BindNative("hold", func(*vm.Thread, []value.Value) (value.Value, *vm.Raised) {
		<-gate
		return value.Value{}, nil
	})
	const (
		rounds = 20
		iters  = 20_000 // still crunching when the migration suspends it
	)
	var jobs []*Job
	missing := 0
	for i := 0; i < rounds; i++ {
		seed := int64(i + 1)
		j, err := n1.Mgr.StartJob("main", value.Int(seed), value.Int(iters))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n1.Mgr.MigrateSOD(j, SODOptions{NFrames: WholeStack, Dest: 3}); err != nil {
			t.Fatalf("migrate job %d: %v", j.ID, err)
		}
		jobs = append(jobs, j)
		var wrapper *Job
		for _, w := range n3.Mgr.jobs.Values() {
			if w.Remote() && w.resultTo == (completion{node: 1, token: j.ID}) {
				wrapper = w
			}
		}
		if wrapper == nil {
			t.Fatalf("job %d: no migrated-in wrapper at node 3", j.ID)
		}
		wrapper.mu.Lock()
		fb := wrapper.resultFallback
		wrapper.mu.Unlock()
		if fb == (completion{}) {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d of %d first hops carried no re-homing fallback", missing, rounds)
	}
	release()
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", j.ID, err)
		}
		if want := workloads.CruncherExpected(int64(i+1), iters); res.I != want {
			t.Errorf("job %d = %d, want %d", j.ID, res.I, want)
		}
	}
}

// TestOriginOnlyJobSendsNoRehome: a job that finishes where it started
// never tells its successor about itself — no KindRehome frame, no
// replicate counted at the origin, nothing Known or retained at the
// successor. A job that does leave is replicated once, as a control that
// the cluster could have replicated the others.
func TestOriginOnlyJobSendsNoRehome(t *testing.T) {
	c := rehomeCluster(t, workloads.Cruncher())
	n1, n2 := c.Nodes[1], c.Nodes[2]
	var frames atomic.Int64
	for _, n := range []*Node{c.Nodes[2], c.Nodes[3]} {
		m := n.Mgr
		n.EP.Handle(netsim.KindRehome, func(from int, payload []byte) ([]byte, error) {
			frames.Add(1)
			return m.handleRehome(from, payload)
		})
	}
	replicated := func() int64 { return n1.Obs.Snapshot().Counters["sod_rehome_replicated_total"] }

	var ids []uint64
	for seed := int64(1); seed <= 5; seed++ {
		j, err := n1.Mgr.StartJob("main", value.Int(seed), value.Int(1_000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// A replicate call takes a link round trip; give any such frame the
	// time to land before judging its absence.
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if f, r := frames.Load(), replicated(); f != 0 || r != 0 {
			t.Fatalf("origin-only jobs sent %d KindRehome frames, counted %d replicates", f, r)
		}
	}
	for _, id := range ids {
		if n2.Mgr.Events().Known(id) {
			t.Errorf("successor knows origin-only job %d", id)
		}
		if _, ok := n2.Mgr.Job(id); ok {
			t.Errorf("successor answers for origin-only job %d", id)
		}
	}
	if g := n2.Obs.Snapshot().Gauges["sod_jobs_retained"]; g != 0 {
		t.Errorf("successor retains %d jobs, want 0", g)
	}

	j, err := n1.Mgr.StartJob("main", value.Int(9), value.Int(200_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Mgr.MigrateSOD(j, SODOptions{NFrames: WholeStack, Dest: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if r := replicated(); r != 1 {
		t.Errorf("migrated job: %d replicates counted, want 1", r)
	}
	if !n2.Mgr.Events().Known(j.ID) {
		t.Errorf("successor does not know migrated job %d", j.ID)
	}
}
