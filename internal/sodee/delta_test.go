package sodee

// Internal tests for the migration fast path (delta capture against the
// per-link snapshot cache, capability negotiation) and for the guard that
// keeps a job mid-restore invisible to stealing.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/preprocess"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/workloads"
)

const (
	deltaIters = int64(4_000_000)
	deltaSeed  = int64(5)
)

func deltaExpected(iters int64) int64 { return workloads.HotClassExpected(deltaSeed, iters) }

// dgate blocks the first thread that reaches the delta_gate native until
// released, so a test can align the first migration with a known stack.
type dgate struct {
	mu      sync.Mutex
	reached chan struct{}
	release chan struct{}
	fired   bool
}

func newDGate() *dgate {
	return &dgate{reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *dgate) native(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
	g.mu.Lock()
	first := !g.fired
	g.fired = true
	g.mu.Unlock()
	if first {
		close(g.reached)
		<-g.release
	}
	return value.Value{}, nil
}

// deltaCluster builds a SODEE cluster over the statics-bearing workload,
// seeds Hot.bias on the first node, and gossips once in each direction so
// every pair has negotiated wire capabilities before the test begins.
func deltaCluster(t *testing.T, ids []int) (*Cluster, *dgate) {
	t.Helper()
	prog := preprocess.MustPreprocess(workloads.HotClassWithMarker("delta_gate"),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	var cfgs []NodeConfig
	for i, id := range ids {
		cfgs = append(cfgs, NodeConfig{ID: id, Preloaded: i == 0})
	}
	c, err := NewCluster(prog, netsim.Gigabit, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	g := newDGate()
	for _, n := range c.Nodes {
		n.VM.BindNative("delta_gate", g.native)
	}
	workloads.SeedHotClass(c.Nodes[ids[0]].VM, prog)
	return c, g
}

func gossipCaps(t *testing.T, c *Cluster) {
	t.Helper()
	for _, n := range c.Nodes {
		n.Mgr.PublishLoad()
	}
	// Load reports travel as fire-and-forget sends; wait until every node
	// has heard (and so stored the wire capabilities of) every peer.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		heard := true
		for _, n := range c.Nodes {
			if len(n.Mgr.PeerSignals()) < len(c.Nodes)-1 {
				heard = false
			}
		}
		if heard {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("load gossip never reached every peer")
}

// gatedMigrate starts fn once the workload has reached the gate, releases
// the gate just after the suspend request lands, and returns fn's outcome.
func gatedMigrate(t *testing.T, g *dgate, fn func() (*MigrationMetrics, error)) (*MigrationMetrics, error) {
	t.Helper()
	<-g.reached
	type out struct {
		mm  *MigrationMetrics
		err error
	}
	ch := make(chan out, 1)
	go func() {
		mm, err := fn()
		ch <- out{mm, err}
	}()
	time.Sleep(2 * time.Millisecond)
	close(g.release)
	o := <-ch
	return o.mm, o.err
}

// awaitWrapper polls until the manager hosts a migratable job (the
// migrated-in wrapper) and returns it.
func awaitWrapper(t *testing.T, m *Manager) *Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if js := m.RunningJobs(); len(js) > 0 {
			return js[0]
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no migratable wrapper appeared")
	return nil
}

// A warm link repeats itself: after the first full migration has seeded
// both ends of the (src,dst) snapshot cache, repeat hops reference the
// unchanged class bundles and statics by hash and ship a fraction of the
// cold cost.
func TestDeltaWarmLinkReducesBytes(t *testing.T) {
	c, g := deltaCluster(t, []int{1, 2})
	n1, n2 := c.Nodes[1], c.Nodes[2]
	gossipCaps(t, c)
	if caps := n1.Mgr.peerWireCaps(2); caps != capDelta {
		t.Fatalf("negotiated caps for node 2 = %#x, want %#x", caps, capDelta)
	}

	job, err := n1.Mgr.StartJob("Hot.crunch", value.Int(deltaSeed), value.Int(deltaIters))
	if err != nil {
		t.Fatal(err)
	}
	var trips []int64
	mm, err := gatedMigrate(t, g, func() (*MigrationMetrics, error) {
		return n1.Mgr.MigrateSOD(job, SODOptions{NFrames: WholeStack, Dest: 2, Flow: FlowReturnHome})
	})
	if err != nil {
		t.Fatalf("cold migration: %v", err)
	}
	trips = append(trips, mm.StateBytes+mm.ClassBytes)

	// Ping-pong the job over the now-warm link.
	mgrs := map[int]*Manager{1: n1.Mgr, 2: n2.Mgr}
	cur := 2
	for trip := 2; trip <= 5; trip++ {
		w := awaitWrapper(t, mgrs[cur])
		dest := 3 - cur
		mm, err := mgrs[cur].MigrateSOD(w, SODOptions{NFrames: WholeStack, Dest: dest, Flow: FlowReturnHome})
		if err != nil {
			t.Fatalf("trip %d (%d→%d): %v", trip, cur, dest, err)
		}
		trips = append(trips, mm.StateBytes+mm.ClassBytes)
		cur = dest
	}

	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != deltaExpected(deltaIters) {
		t.Errorf("result = %d, want %d", res.I, deltaExpected(deltaIters))
	}

	cold, warm := trips[0], trips[2] // trip 3: node 1 sending over a warm link
	if warm*10 >= cold*6 {
		t.Errorf("warm trip shipped %d bytes vs cold %d: want < 60%% (trips: %v)", warm, cold, trips)
	}
	if n1.Mgr.met.deltaHits.Value() == 0 {
		t.Error("sender recorded no delta hits over a warm link")
	}
	if n1.Mgr.met.deltaSaved.Value() <= 0 {
		t.Error("sender recorded no bytes saved over a warm link")
	}
	if n1.Mgr.met.gossipPiggyback.Value() == 0 {
		t.Error("no load report rode a migration")
	}
}

// A peer that never advertised the delta capability gets the
// self-contained full-state format, and the link caches stay empty.
func TestWireCapsZeroFullState(t *testing.T) {
	c, g := deltaCluster(t, []int{1, 2})
	n1, n2 := c.Nodes[1], c.Nodes[2]
	n1.Mgr.SetWireCaps(0)
	n2.Mgr.SetWireCaps(0)
	gossipCaps(t, c)
	if caps := n1.Mgr.peerWireCaps(2); caps != 0 {
		t.Fatalf("negotiated caps = %#x, want 0", caps)
	}

	job, err := n1.Mgr.StartJob("Hot.crunch", value.Int(deltaSeed), value.Int(deltaIters))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gatedMigrate(t, g, func() (*MigrationMetrics, error) {
		return n1.Mgr.MigrateSOD(job, SODOptions{NFrames: WholeStack, Dest: 2, Flow: FlowReturnHome})
	}); err != nil {
		t.Fatalf("migration: %v", err)
	}
	w := awaitWrapper(t, n2.Mgr)
	if _, err := n2.Mgr.MigrateSOD(w, SODOptions{NFrames: WholeStack, Dest: 1, Flow: FlowReturnHome}); err != nil {
		t.Fatalf("return migration: %v", err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != deltaExpected(deltaIters) {
		t.Errorf("result = %d, want %d", res.I, deltaExpected(deltaIters))
	}
	for id, n := range map[int]*Node{1: n1, 2: n2} {
		if v := n.Mgr.met.deltaHits.Value(); v != 0 {
			t.Errorf("node %d: deltaHits = %d with caps 0", id, v)
		}
	}
	if l := n1.Mgr.deltaCacheLen(2); l != 0 {
		t.Errorf("link cache grew to %d units with caps 0", l)
	}
}

// A peer death evicts the snapshot cache for its link; a rejoin does too
// (the restarted process remembers nothing). The surviving side's stale
// cache triggers the delta-miss resync: one full resend, then correct
// execution.
func TestDeltaCacheEvictedOnPeerDeath(t *testing.T) {
	c, g := deltaCluster(t, []int{1, 2})
	n1, n2 := c.Nodes[1], c.Nodes[2]
	gossipCaps(t, c)

	job, err := n1.Mgr.StartJob("Hot.crunch", value.Int(deltaSeed), value.Int(deltaIters))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gatedMigrate(t, g, func() (*MigrationMetrics, error) {
		return n1.Mgr.MigrateSOD(job, SODOptions{NFrames: WholeStack, Dest: 2, Flow: FlowReturnHome})
	}); err != nil {
		t.Fatalf("migration: %v", err)
	}
	if n1.Mgr.deltaCacheLen(2) == 0 || n2.Mgr.deltaCacheLen(1) == 0 {
		t.Fatal("link caches not seeded by the first migration")
	}

	// Node 1 declares node 2 dead: its half of the link cache must go.
	now := time.Now()
	for i := 0; i < 3; i++ {
		n1.Members.ObserveFailure(2, now)
	}
	if n1.Mgr.deltaCacheLen(2) != 0 {
		t.Fatalf("node 1 kept %d cached units for a dead peer", n1.Mgr.deltaCacheLen(2))
	}
	// The peer rejoins (Alive transition) — still evicted, not repopulated.
	n1.Members.Observe(2, time.Now())
	if n1.Mgr.deltaCacheLen(2) != 0 {
		t.Fatalf("rejoin repopulated the link cache")
	}

	// Node 2 still holds its half and will send delta references node 1
	// can no longer resolve: the miss must trigger exactly one full
	// resend, after which the job completes correctly.
	w := awaitWrapper(t, n2.Mgr)
	if _, err := n2.Mgr.MigrateSOD(w, SODOptions{NFrames: WholeStack, Dest: 1, Flow: FlowReturnHome}); err != nil {
		t.Fatalf("post-eviction migration: %v", err)
	}
	if n2.Mgr.met.deltaMisses.Value() == 0 {
		t.Error("stale sender cache produced no delta-miss resync")
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != deltaExpected(deltaIters) {
		t.Errorf("result = %d, want %d", res.I, deltaExpected(deltaIters))
	}
}

// A migrated-in job joins the destination's job table only once its
// breakpoint restore has resumed the last frame: a steal request that
// lands mid-restore must be denied, and the same request granted once
// the restore completes. Holding node 2's only modeled core keeps the
// restore thread from executing, so the window stays open as long as the
// test needs it.
func TestStealDeniedDuringRestore(t *testing.T) {
	c, g := deltaCluster(t, []int{1, 2, 3})
	n1, n2, n3 := c.Nodes[1], c.Nodes[2], c.Nodes[3]
	n2.VM.CPU = vm.NewCPUGate(1) // no thread has started on node 2 yet
	gossipCaps(t, c)
	n2.Mgr.EnableSteal(policy.Steal{}, policy.HopGate{Budget: 8, Cooldown: -1})

	job, err := n1.Mgr.StartJob("Hot.crunch", value.Int(deltaSeed), value.Int(deltaIters))
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		mm  *MigrationMetrics
		err error
	}
	migDone := make(chan out, 1)
	<-g.reached
	n2.VM.CPU.Acquire()
	go func() {
		mm, err := n1.Mgr.MigrateSOD(job, SODOptions{NFrames: WholeStack, Dest: 2, Flow: FlowReturnHome})
		migDone <- out{mm, err}
	}()
	time.Sleep(2 * time.Millisecond)
	close(g.release)

	// Wait for the migration to land: the restore thread exists on node 2
	// but cannot run, so the restore has not resumed any frame.
	deadline := time.Now().Add(5 * time.Second)
	for n2.VM.NumThreads() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("restore thread never appeared on the destination")
		}
		time.Sleep(500 * time.Microsecond)
	}
	if js := n2.Mgr.RunningJobs(); len(js) != 0 {
		t.Fatalf("mid-restore job is visible to the balancer: %d running jobs", len(js))
	}

	// A decoy VM thread lifts node 2 over the steal watermarks without
	// entering the job table, so the only possible grant candidate is the
	// job being restored.
	decoy, err := n2.VM.NewThread(c.Prog.MethodByName("Hot.crunch"),
		value.Int(1), value.Int(40_000_000))
	if err != nil {
		t.Fatal(err)
	}
	go decoy.Run()

	won, err := n3.Mgr.RequestSteal(2, 0)
	if err != nil {
		t.Fatalf("steal request: %v", err)
	}
	if won {
		t.Fatal("steal granted a job whose restore has not completed")
	}

	n2.VM.CPU.Release()
	o := <-migDone
	if o.err != nil {
		t.Fatalf("migration: %v", o.err)
	}
	// Restore complete: the same request must now win the job.
	awaitWrapper(t, n2.Mgr)
	won, err = n3.Mgr.RequestSteal(2, 0)
	if err != nil {
		t.Fatalf("post-restore steal request: %v", err)
	}
	if !won {
		t.Fatal("steal denied after the restore completed")
	}
	// The decoy has served its purpose; stop it rather than let it burn
	// CPU under the tests that follow.
	ack, err := decoy.RequestSuspend()
	if err != nil {
		t.Fatal(err)
	}
	<-ack
	if err := decoy.Kill(); err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != deltaExpected(deltaIters) {
		t.Errorf("result = %d, want %d (exactly-once across restore + steal)", res.I, deltaExpected(deltaIters))
	}
}
