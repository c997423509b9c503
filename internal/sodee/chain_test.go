package sodee_test

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/preprocess"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/workloads"
)

// Tests for the chain executor: policy-driven multi-segment FlowForward
// pipelines, their event stream, and their failure degradations. The
// workflow workload (main → stage1 → stage2) is the canonical chain prey;
// its Go mirror keeps every assertion exact.

// newWorkflowCluster builds an n-node simulated cluster running the
// workflow program (with the chaos marker bound on every node).
func newWorkflowCluster(t *testing.T, marker *chaosMarker, configs ...sodee.NodeConfig) *sodee.Cluster {
	t.Helper()
	prog := preprocess.MustPreprocess(workloads.WorkflowWithMarker("chaos_done"),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	c, err := sodee.NewCluster(prog, netsim.Gigabit, configs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.VM.BindNative("chaos_done", marker.native)
	}
	return c
}

// twoLinkPlan plans [stage2]@d1 → [stage1, main]@d2 once the full
// three-frame stack is parked; shallower suspensions decline so the
// caller retries.
func twoLinkPlan(d1, d2, origin int) sodee.ChainPlanFunc {
	return func(frames []policy.FrameSignal) (policy.ChainPlan, error) {
		if len(frames) != 3 {
			return policy.ChainPlan{}, sodee.ErrChainNotPlanned
		}
		return policy.ChainPlan{Segments: []policy.ChainSegment{
			{Frames: 1, Dest: d1, ForwardTo: d2},
			{Frames: 2, Dest: d2, ForwardTo: origin},
		}}, nil
	}
}

// chainUntilPlanned retries MigrateChain while the thread has not yet
// reached the planned stack depth.
func chainUntilPlanned(t *testing.T, m *sodee.Manager, job *sodee.Job, plan sodee.ChainPlanFunc) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		_, err := m.MigrateChain(job, plan, sodee.ReasonChained)
		if err == nil {
			return
		}
		if !errors.Is(err, sodee.ErrChainNotPlanned) {
			t.Fatalf("MigrateChain: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("stack never reached chainable depth")
		}
		time.Sleep(time.Millisecond)
	}
}

// drainEvents collects a job's full event stream (subscribed before the
// chain executes, so nothing is missed).
func drainEvents(t *testing.T, ch <-chan sodee.JobEvent) []sodee.JobEvent {
	t.Helper()
	var events []sodee.JobEvent
	deadline := time.After(60 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return events
			}
			events = append(events, ev)
			if ev.Terminal() {
				return events
			}
		case <-deadline:
			t.Fatalf("event stream never terminated; got %+v", events)
		}
	}
}

func kindCount(events []sodee.JobEvent, kind sodee.EventKind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestMigrateChainThreeStagePipeline is the happy path: a three-frame
// workflow splits into [stage2]@2 → [stage1,main]@3, the result flushes
// to the origin, and the event stream narrates every link.
func TestMigrateChainThreeStagePipeline(t *testing.T) {
	marker := newChaosMarker()
	c := newWorkflowCluster(t, marker,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true},
		sodee.NodeConfig{ID: 3, Preloaded: true})

	const seed, iters = 42, 600_000
	origin := c.Nodes[1]
	job, err := origin.Mgr.StartJob("main", value.Int(seed), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := origin.Mgr.Events().Subscribe(job.ID)
	defer cancel()

	chainUntilPlanned(t, origin.Mgr, job, twoLinkPlan(2, 3, 1))

	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.WorkflowExpected(seed, iters); res.I != want {
		t.Errorf("result = %d, want %d", res.I, want)
	}
	if n := marker.count(seed); n != 1 {
		t.Errorf("terminal marker ran %d times, want exactly 1", n)
	}

	events := drainEvents(t, ch)
	var planted, forwarded *sodee.JobEvent
	for i := range events {
		switch events[i].Kind {
		case sodee.EvSegmentPlanted:
			planted = &events[i]
		case sodee.EvSegmentForwarded:
			forwarded = &events[i]
		}
	}
	if planted == nil || planted.To != 3 || planted.Seg != 1 || planted.SegOf != 2 {
		t.Errorf("segment-planted event wrong: %+v", planted)
	}
	if forwarded == nil || forwarded.From != 2 || forwarded.To != 3 {
		t.Errorf("segment-forwarded event wrong: %+v", forwarded)
	}
	sawChainMigrate := false
	for _, ev := range events {
		if ev.Kind == sodee.EvMigrated && ev.To == 2 && ev.Seg == 0 && ev.SegOf == 2 {
			sawChainMigrate = true
		}
	}
	if !sawChainMigrate {
		t.Errorf("no chain-position EvMigrated for the top segment: %+v", events)
	}
	if events[len(events)-1].Kind != sodee.EvCompleted {
		t.Errorf("stream did not end with completion: %+v", events)
	}
}

// TestChainLocalTailKeepsPinnedFramesHome: a plan whose tail names the
// origin leaves those frames parked in place; the forwarded value comes
// home and the job's own thread finishes the work (the photoshare shape,
// where the bottom frame holds the client socket).
func TestChainLocalTailKeepsPinnedFramesHome(t *testing.T) {
	marker := newChaosMarker()
	c := newWorkflowCluster(t, marker,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true})

	const seed, iters = 7, 400_000
	origin := c.Nodes[1]
	job, err := origin.Mgr.StartJob("main", value.Int(seed), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := origin.Mgr.Events().Subscribe(job.ID)
	defer cancel()

	chainUntilPlanned(t, origin.Mgr, job, func(frames []policy.FrameSignal) (policy.ChainPlan, error) {
		if len(frames) != 3 {
			return policy.ChainPlan{}, sodee.ErrChainNotPlanned
		}
		return policy.ChainPlan{Segments: []policy.ChainSegment{
			{Frames: 1, Dest: 2, ForwardTo: 1},
			{Frames: 2, Dest: 1, ForwardTo: 1}, // tail stays home
		}}, nil
	})

	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.WorkflowExpected(seed, iters); res.I != want {
		t.Errorf("result = %d, want %d", res.I, want)
	}
	if n := marker.count(seed); n != 1 {
		t.Errorf("terminal marker ran %d times, want exactly 1", n)
	}
	events := drainEvents(t, ch)
	tailForwarded := false
	for _, ev := range events {
		if ev.Kind == sodee.EvSegmentForwarded && ev.To == 1 && ev.From == 2 {
			tailForwarded = true
		}
	}
	if !tailForwarded {
		t.Errorf("no segment-forwarded back to the local tail: %+v", events)
	}
}

// TestChainPlantDegradesToLocal: the middle link's node is already dead
// at plant time — the link degrades to a local plant and the chain still
// completes exactly once.
func TestChainPlantDegradesToLocal(t *testing.T) {
	marker := newChaosMarker()
	c := newWorkflowCluster(t, marker,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true},
		sodee.NodeConfig{ID: 3, Preloaded: true})
	c.Net.SetNodeDown(3, true) // the planned forward node is gone

	const seed, iters = 9, 400_000
	origin := c.Nodes[1]
	job, err := origin.Mgr.StartJob("main", value.Int(seed), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := origin.Mgr.Events().Subscribe(job.ID)
	defer cancel()

	chainUntilPlanned(t, origin.Mgr, job, twoLinkPlan(2, 3, 1))

	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.WorkflowExpected(seed, iters); res.I != want {
		t.Errorf("result = %d, want %d", res.I, want)
	}
	if n := marker.count(seed); n != 1 {
		t.Errorf("terminal marker ran %d times, want exactly 1", n)
	}
	events := drainEvents(t, ch)
	degraded := false
	for _, ev := range events {
		if ev.Kind == sodee.EvSegmentPlanted && ev.To == 1 && ev.Seg == 1 {
			degraded = true
		}
	}
	if !degraded {
		t.Errorf("no degraded-to-local plant event: %+v", events)
	}
}

// TestChainPlannerDrivenBalancer: the full policy path — a chained job
// submitted to a loaded weak node, the balancer's planner splitting it
// across two idle strong peers with no manual placement anywhere.
func TestChainPlannerDrivenBalancer(t *testing.T) {
	marker := newChaosMarker()
	c := newWorkflowCluster(t, marker,
		sodee.NodeConfig{ID: 1, Preloaded: true, Cores: 1, Slow: 16},
		sodee.NodeConfig{ID: 2, Preloaded: true},
		sodee.NodeConfig{ID: 3, Preloaded: true})

	b := c.AutoBalance(policy.Never{}, sodee.BalanceOptions{
		Interval: time.Millisecond,
		Chain:    true,
	})
	defer b.Stop()

	const seed, iters = 21, 400_000
	origin := c.Nodes[1]
	job, err := origin.Mgr.StartJobChained("main", value.Int(seed), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := origin.Mgr.Events().Subscribe(job.ID)
	defer cancel()

	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.WorkflowExpected(seed, iters); res.I != want {
		t.Errorf("result = %d, want %d", res.I, want)
	}
	if n := marker.count(seed); n != 1 {
		t.Errorf("terminal marker ran %d times, want exactly 1", n)
	}

	events := drainEvents(t, ch)
	st := b.Stats()
	if st.Chained < 1 {
		t.Errorf("balancer chained %d jobs, want >= 1 (events: %+v)", st.Chained, events)
	}
	if st.Migrations != st.Pushed+st.Stolen+st.Rebalanced+st.Chained {
		t.Errorf("direction split %d+%d+%d+%d does not sum to %d migrations",
			st.Pushed, st.Stolen, st.Rebalanced, st.Chained, st.Migrations)
	}
	if kindCount(events, sodee.EvSegmentPlanted) < 1 {
		t.Errorf("no segment-planted events in planner-driven chain: %+v", events)
	}
	chained := false
	for _, ev := range events {
		if ev.Kind == sodee.EvMigrated && ev.Reason == sodee.ReasonChained {
			chained = true
		}
	}
	if !chained {
		t.Errorf("no chained-reason migration event: %+v", events)
	}
}

// TestWaitingTailRefusesManualMigration: a chain's parked local tail is
// owned by its resume route; a manual MigrateSOD on the job must refuse
// to capture it (shipping those frames would orphan the route and
// resume a killed thread when the value arrives).
func TestWaitingTailRefusesManualMigration(t *testing.T) {
	marker := newChaosMarker()
	c := newWorkflowCluster(t, marker,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true})

	const seed, iters = 13, 900_000
	origin := c.Nodes[1]
	job, err := origin.Mgr.StartJob("main", value.Int(seed), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	chainUntilPlanned(t, origin.Mgr, job, func(frames []policy.FrameSignal) (policy.ChainPlan, error) {
		if len(frames) != 3 {
			return policy.ChainPlan{}, sodee.ErrChainNotPlanned
		}
		return policy.ChainPlan{Segments: []policy.ChainSegment{
			{Frames: 1, Dest: 2, ForwardTo: 1},
			{Frames: 2, Dest: 1, ForwardTo: 1},
		}}, nil
	})
	// The tail [stage1, main] is parked locally, waiting. While the top
	// segment is still crunching on node 2, a manual whole-stack push of
	// the job must be refused, not capture the parked tail.
	if _, merr := origin.Mgr.MigrateSOD(job, sodee.SODOptions{
		NFrames: sodee.WholeStack, Dest: 2,
	}); merr == nil {
		t.Fatal("manual migration captured a waiting chain tail")
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.WorkflowExpected(seed, iters); res.I != want {
		t.Errorf("result = %d, want %d", res.I, want)
	}
	if n := marker.count(seed); n != 1 {
		t.Errorf("terminal marker ran %d times, want exactly 1", n)
	}
}

// TestChainedOwnershipSurvivesMigration: a chain-owned job whole-stack
// migrated before its planner fires (a steal, or a manual push) stays
// planner-owned at its new host — SubmitChain semantics travel with the
// stack.
func TestChainedOwnershipSurvivesMigration(t *testing.T) {
	marker := newChaosMarker()
	c := newWorkflowCluster(t, marker,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true})

	const seed, iters = 17, 900_000
	origin := c.Nodes[1]
	job, err := origin.Mgr.StartJobChained("main", value.Int(seed), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	if !job.Chained() {
		t.Fatal("StartJobChained did not mark the job")
	}
	if _, err := origin.Mgr.MigrateSOD(job, sodee.SODOptions{
		NFrames: sodee.WholeStack, Dest: 2,
	}); err != nil {
		t.Fatal(err)
	}
	// The wrapper hosting the stack on node 2 must still be chain-owned.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var wrapper *sodee.Job
		for _, j := range c.Nodes[2].Mgr.RunningJobs() {
			if j.Remote() {
				wrapper = j
			}
		}
		if wrapper != nil {
			if !wrapper.Chained() {
				t.Fatal("chained mark lost in whole-stack migration")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("migrated wrapper never appeared on node 2")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.WorkflowExpected(seed, iters); res.I != want {
		t.Errorf("result = %d, want %d", res.I, want)
	}
}

// TestChainChaosMidChainCrash is the chain chaos scenario (`make chaos`
// runs it under -race across the seed matrix): the mid-chain node is
// killed *between* plant and forward — the planted link dies holding its
// frames while the top segment is still executing elsewhere. The chain's
// recovery route must rebuild the link at the origin, complete the job
// with the right answer, run the terminal statement exactly once, and
// flush the result at the origin — the crash degrades the chain, it
// never wedges or doubles it.
func TestChainChaosMidChainCrash(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			marker := newChaosMarker()
			c := newWorkflowCluster(t, marker,
				sodee.NodeConfig{ID: 1, Preloaded: true},
				sodee.NodeConfig{ID: 2, Preloaded: true},
				sodee.NodeConfig{ID: 3, Preloaded: true})

			jobSeed := seed*100_000 + 1
			const iters = 900_000 // stage2 grinds long enough to out-live the kill
			origin := c.Nodes[1]
			job, err := origin.Mgr.StartJob("main", value.Int(jobSeed), value.Int(iters))
			if err != nil {
				t.Fatal(err)
			}
			ch, cancel, _ := origin.Mgr.Events().Subscribe(job.ID)
			defer cancel()

			// Plant [stage1,main] on node 3, ship [stage2] to node 2...
			chainUntilPlanned(t, origin.Mgr, job, twoLinkPlan(2, 3, 1))
			// ...and kill node 3 while stage2 is still crunching on node 2:
			// after the plant, before the forward. It stays dead — only the
			// recovery path can finish the job.
			c.Net.SetNodeDown(3, true)

			res, err := job.Wait()
			if err != nil {
				t.Fatalf("job lost to mid-chain crash: %v", err)
			}
			if want := workloads.WorkflowExpected(jobSeed, iters); res.I != want {
				t.Errorf("result = %d, want %d", res.I, want)
			}
			// Exactly once, wherever the final frame ended up running.
			if n := marker.count(jobSeed); n != 1 {
				t.Errorf("terminal marker ran %d times, want exactly 1", n)
			}

			events := drainEvents(t, ch)
			recovered := false
			for _, ev := range events {
				if ev.Kind == sodee.EvSegmentForwarded && ev.To == 1 {
					recovered = true // the link rebuilt at the origin
				}
			}
			if !recovered {
				t.Errorf("crashed link never recovered at the origin: %+v", events)
			}
			// The result landed at the origin: the terminal event fires on
			// node 1 with the right answer (the recovered link delivered
			// locally — no wire flush, but the flush-home guarantee holds).
			last := events[len(events)-1]
			if last.Kind != sodee.EvCompleted || last.To != 1 || last.Result != res.I || last.Err != "" {
				t.Errorf("terminal event wrong: %+v", last)
			}
		})
	}
}
