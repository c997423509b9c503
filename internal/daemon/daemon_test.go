package daemon

import (
	"context"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/sodee"
	"repro/internal/workloads"
)

// The integration tests boot real daemons in-process: every node has its
// own TCP transport on a loopback ephemeral port, its own cluster shell,
// its own balancer — exactly what cmd/sodd runs, minus the process
// boundary. Nothing here touches netsim.Network: there is no SetNodeDown
// to call even if a test wanted to; crashes are transport closures that
// the heartbeat detectors must notice on their own.

const (
	testIters   = 150_000
	testTimeout = 60 * time.Second
)

// bootTrio starts a weak node 1 and strong nodes 2, 3 and joins them
// into one cluster.
func bootTrio(t *testing.T) (d1, d2, d3 *Daemon) {
	t.Helper()
	mk := func(id, cores, slow int) *Daemon {
		d, err := New(Config{
			ID: id, Cores: cores, Slow: slow,
			Policy:   "threshold",
			Interval: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("boot daemon %d: %v", id, err)
		}
		t.Cleanup(d.Stop)
		return d
	}
	d1 = mk(1, 1, 16) // weak: one core, throttled
	d2 = mk(2, 0, 0)
	d3 = mk(3, 0, 0)
	if err := d2.Join(d1.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := d3.Join(d1.Addr()); err != nil {
		t.Fatal(err)
	}
	return d1, d2, d3
}

// waitMembers polls until d's tracker reports every want peer alive.
func waitMembers(t *testing.T, d *Daemon, want ...int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		ok := true
		for _, id := range want {
			if d.Node().Members.State(id) != membership.Alive {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon %d never saw %v alive: %+v", d.ID(), want, d.Node().Members.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestThreeNodeClusterFormsAndBalances boots three TCP daemons, checks
// that the join protocol plus heartbeats give every node a full live
// membership view, then drives a burst through the control plane and
// checks that AutoBalance spilled it over real sockets.
func TestThreeNodeClusterFormsAndBalances(t *testing.T) {
	d1, d2, d3 := bootTrio(t)

	// Discovery: d3 never dialed d2 directly — the roster walk and the
	// seed's member gossip must connect them, and heartbeats must keep
	// all pairs alive.
	waitMembers(t, d1, 2, 3)
	waitMembers(t, d2, 1, 3)
	waitMembers(t, d3, 1, 2)

	ctl, err := Dial(d1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if self, members, err := ctl.Members(context.Background()); err != nil || self != 1 || len(members) != 2 {
		t.Fatalf("ctl members: self=%d members=%+v err=%v", self, members, err)
	}

	const njobs = 5
	jobIDs := make([]uint64, njobs)
	seeds := make([]int64, njobs)
	for i := range jobIDs {
		seeds[i] = int64(300 + i)
		j, err := ctl.Submit(context.Background(), "main", seeds[i], testIters)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobIDs[i] = j.ID()
	}
	for i, id := range jobIDs {
		res, done, errMsg, err := ctl.Wait(context.Background(), id, testTimeout)
		if err != nil || !done || errMsg != "" {
			t.Fatalf("job %d: done=%v errMsg=%q err=%v", i, done, errMsg, err)
		}
		if want := workloads.CruncherExpected(seeds[i], testIters); res != want {
			t.Errorf("job %d: result %d, want %d", i, res, want)
		}
	}

	st, _, err := ctl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Migrations == 0 {
		t.Fatalf("burst never spilled over TCP: %+v", st)
	}
	if st.MigrationsTo[1] != 0 {
		t.Errorf("balancer migrated onto the overloaded home node: %+v", st.MigrationsTo)
	}
	// The spilled segments must actually have executed remotely.
	if d2.Node().VM.LiveInstructions()+d3.Node().VM.LiveInstructions() == 0 {
		t.Error("strong nodes executed nothing despite migrations")
	}
	// Migration transfers calibrated at least one link estimate.
	load, err := ctl.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(load.WireLatency) == 0 {
		t.Error("no wire-latency observations after real migrations")
	}
}

// TestKillNodeMidRunDetectedByHeartbeats is the crash acceptance
// scenario: a destination daemon dies mid-run with jobs in flight. The
// survivors' failure detectors must notice on their own (no SetNodeDown
// exists here), a migration aimed at the corpse must fall back to local
// execution, every job must still complete, and a rejoin must heal the
// view.
func TestKillNodeMidRunDetectedByHeartbeats(t *testing.T) {
	d1, d2, d3 := bootTrio(t)
	waitMembers(t, d1, 2, 3)
	waitMembers(t, d2, 1, 3)

	// Let a couple of gossip rounds land so node 1 holds fresh reports
	// advertising node 3 as an idle destination.
	deadline := time.Now().Add(10 * time.Second)
	for len(d1.Node().Mgr.PeerSignals()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("gossip reports never arrived at node 1")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Crash node 3 — transport torn down, no goodbye — and immediately
	// throw a burst at the weak node while the survivors still hold
	// node 3's stale "idle" report.
	d3.Stop()

	const njobs = 4
	jobs := make([]*sodee.Job, njobs)
	seeds := make([]int64, njobs)
	for i := range jobs {
		seeds[i] = int64(500 + i)
		j, err := d1.Submit("main", seeds[i], testIters)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}

	// Deterministic crash fallback over sockets: aim one migration
	// straight at the corpse. The transfer must fail, the job must not.
	fb, err := d1.Submit("main", 999, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, merr := d1.Node().Mgr.MigrateSOD(fb, sodee.SODOptions{
		NFrames: sodee.WholeStack, Dest: 3, Flow: sodee.FlowReturnHome,
	}); merr == nil {
		t.Fatal("migration to a crashed daemon should fail")
	}

	// Heartbeat detection: both survivors declare node 3 dead without
	// being told anything.
	deadline = time.Now().Add(20 * time.Second)
	for d1.Node().Members.State(3) != membership.Dead ||
		d2.Node().Members.State(3) != membership.Dead {
		if time.Now().After(deadline) {
			t.Fatalf("survivors never detected the crash: d1=%v d2=%v",
				d1.Node().Members.State(3), d2.Node().Members.State(3))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And each other stays alive: the corpse's silence is not contagious.
	if d1.Node().Members.State(2) == membership.Dead {
		t.Error("node 1 wrongly declared node 2 dead")
	}

	// Every job completes with the right answer — via node 2 or locally.
	waitJob := func(j *sodee.Job, want int64) {
		done := make(chan struct{})
		go func() { j.Wait(); close(done) }() //nolint:errcheck // re-read below
		select {
		case <-done:
		case <-time.After(testTimeout):
			t.Fatal("job wedged after crash")
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("job failed after crash: %v", err)
		}
		if res.I != want {
			t.Errorf("result = %d, want %d", res.I, want)
		}
	}
	for i, j := range jobs {
		waitJob(j, workloads.CruncherExpected(seeds[i], testIters))
	}
	waitJob(fb, workloads.CruncherExpected(999, 600_000))

	// Rejoin heals: a fresh daemon reclaims id 3 on a new port and joins;
	// the survivors' detectors flip it back to alive.
	d3b, err := New(Config{ID: 3, Policy: "threshold", Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d3b.Stop()
	if err := d3b.Join(d1.Addr()); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, d1, 2, 3)
	waitMembers(t, d2, 1, 3)
}

// TestControlPlaneAcrossDaemons: submissions land on whichever daemon
// the client dialed, and a workload mismatch in method names surfaces as
// a clean error, not a wedge.
func TestControlPlaneAcrossDaemons(t *testing.T) {
	d1, _, _ := bootTrio(t)
	ctl, err := Dial(d1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	if _, err := ctl.Submit(context.Background(), "no_such_method", 1); err == nil {
		t.Fatal("submitting an unknown method should fail")
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	res, err := ctl.Run(ctx, "main", 7, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.CruncherExpected(7, 20_000); res != want {
		t.Errorf("run result = %d, want %d", res, want)
	}
}

// TestJoinSkipsDeadRosterMember: a cluster that has lost a member must
// still accept newcomers — the seed's join reply excludes members its
// detector has declared dead, and an unreachable roster address is
// skipped rather than fatal.
func TestJoinSkipsDeadRosterMember(t *testing.T) {
	d1, d2, d3 := bootTrio(t)
	waitMembers(t, d1, 2, 3)
	d3.Stop()
	// Both survivors must have declared node 3 dead: the joiner walks
	// every member's roster, so any survivor still advertising the corpse
	// would hand its address out.
	deadline := time.Now().Add(20 * time.Second)
	for d1.Node().Members.State(3) != membership.Dead ||
		d2.Node().Members.State(3) != membership.Dead {
		if time.Now().After(deadline) {
			t.Fatal("survivors never detected the dead member")
		}
		time.Sleep(5 * time.Millisecond)
	}

	d4, err := New(Config{ID: 4, Policy: "threshold", Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d4.Stop)
	start := time.Now()
	if err := d4.Join(d1.Addr()); err != nil {
		t.Fatalf("join with a dead roster member should succeed: %v", err)
	}
	// The dead member was filtered from the roster, so the join must not
	// have burned a dial-retry budget on it.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("join took %v; dead member likely dialed", elapsed)
	}
	waitMembers(t, d4, 1, 2)
	waitMembers(t, d2, 1, 4)
	_ = d3
}

// TestStealOnlyClusterSplitsStatsByDirection boots a steal-only cluster
// (push policy "none", Steal armed): the idle strong daemons must pull
// the weak node's burst entirely by stealing, and the control plane must
// report the migration split per direction — stolen counted, pushed
// zero — instead of one aggregate.
func TestStealOnlyClusterSplitsStatsByDirection(t *testing.T) {
	mk := func(id, cores, slow int) *Daemon {
		d, err := New(Config{
			ID: id, Cores: cores, Slow: slow,
			Policy: "none", Steal: true,
			// A long cooldown pins the test's direction asserts: once
			// drained, the victim is idle and could otherwise steal a job
			// back after the default 250ms quarantine on a slow host.
			Cooldown: time.Minute,
			Interval: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("boot daemon %d: %v", id, err)
		}
		t.Cleanup(d.Stop)
		return d
	}
	d1 := mk(1, 1, 16) // weak victim
	d2 := mk(2, 0, 0)
	d3 := mk(3, 0, 0)
	if err := d2.Join(d1.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := d3.Join(d1.Addr()); err != nil {
		t.Fatal(err)
	}
	waitMembers(t, d1, 2, 3)
	waitMembers(t, d2, 1, 3)
	waitMembers(t, d3, 1, 2)

	ctl, err := Dial(d1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// Heavier jobs than the push test: on a starved 1-CPU host the
	// balancer reacts at ~10-20ms granularity, and a steal needs a full
	// gossip round before the thief even sees a victim — short jobs can
	// drain serially before the first request lands.
	const njobs = 6
	const stealIters = 4 * testIters
	jobIDs := make([]uint64, njobs)
	seeds := make([]int64, njobs)
	for i := range jobIDs {
		seeds[i] = int64(700 + i)
		j, err := ctl.Submit(context.Background(), "main", seeds[i], stealIters)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobIDs[i] = j.ID()
	}
	for i, id := range jobIDs {
		res, done, errMsg, err := ctl.Wait(context.Background(), id, testTimeout)
		if err != nil || !done || errMsg != "" {
			t.Fatalf("job %d: done=%v errMsg=%q err=%v", i, done, errMsg, err)
		}
		if want := workloads.CruncherExpected(seeds[i], stealIters); res != want {
			t.Errorf("job %d: result %d, want %d", i, res, want)
		}
	}

	// The victim's view: it pushed nothing (policy none) and stole
	// nothing (it was the loaded one), but it granted steals.
	vicBal, vicSteal, err := ctl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vicBal.Pushed != 0 || vicBal.Stolen != 0 {
		t.Errorf("victim should neither push nor steal: %+v", vicBal)
	}
	if vicSteal.Granted == 0 {
		t.Errorf("victim granted no steals: %+v", vicSteal)
	}

	// The thieves' view: stolen > 0, pushed == 0, and the split sums.
	totalStolen := 0
	for _, d := range []*Daemon{d2, d3} {
		ctl2, err := Dial(d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		bal, steal, err := ctl2.Stats(context.Background())
		ctl2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bal.Pushed != 0 {
			t.Errorf("daemon %d pushed %d jobs under policy none", d.ID(), bal.Pushed)
		}
		if bal.Migrations != bal.Pushed+bal.Stolen+bal.Rebalanced {
			t.Errorf("daemon %d split %d+%d+%d does not sum to %d",
				d.ID(), bal.Pushed, bal.Stolen, bal.Rebalanced, bal.Migrations)
		}
		if steal.Won != bal.Stolen {
			t.Errorf("daemon %d wire stats disagree: won %d vs stolen %d", d.ID(), steal.Won, bal.Stolen)
		}
		totalStolen += bal.Stolen
	}
	if totalStolen == 0 {
		t.Error("no daemon stole anything; the burst must have run serially")
	}
	if d2.Node().VM.LiveInstructions()+d3.Node().VM.LiveInstructions() == 0 {
		t.Error("thieves executed nothing")
	}
}
