package sodee_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/preprocess"
	"repro/internal/sodee"
	"repro/internal/value"
)

// Failure-injection tests: the runtime must degrade cleanly when
// migrations are requested at the wrong time, toward the wrong node, or
// when the migrated code itself crashes.

func TestMigrateAfterJobFinished(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, true)
	close(g.release)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, merr := home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 2, Flow: sodee.FlowReturnHome}); merr == nil {
		t.Fatal("migrating a finished job should fail")
	}
}

func TestMigrateToUnknownNode(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, true)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	<-g.reached
	errCh := make(chan error, 1)
	go func() {
		_, merr := home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 99, Flow: sodee.FlowReturnHome})
		errCh <- merr
	}()
	time.Sleep(2 * time.Millisecond)
	close(g.release)
	if merr := <-errCh; merr == nil || !strings.Contains(merr.Error(), "unreachable") {
		t.Fatalf("expected unreachable-node error, got %v", merr)
	}
	// The send failed after capture, but the manager rebuilds the
	// captured frames in place and resumes: the migration fails, the job
	// does not.
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d after failed migration", res.I)
	}
}

func TestSegmentSizeOutOfRange(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, true)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	<-g.reached
	errCh := make(chan error, 1)
	go func() {
		_, merr := home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 99, Dest: 2, Flow: sodee.FlowReturnHome})
		errCh <- merr
	}()
	time.Sleep(2 * time.Millisecond)
	close(g.release)
	if merr := <-errCh; merr == nil || !strings.Contains(merr.Error(), "out of range") {
		t.Fatalf("expected segment-size error, got %v", merr)
	}
	// The thread must have been resumed and the job completes normally.
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d after refused migration", res.I)
	}
}

// buildCrasher assembles a workload whose migrated frame divides by zero
// remotely; the error must propagate back to the job at home.
func TestRemoteCrashPropagatesHome(t *testing.T) {
	prog := preprocess.MustPreprocess(buildCrasherProgram(),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	c, err := sodee.NewCluster(prog, netsim.Gigabit,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	g := newGate()
	for _, n := range c.Nodes {
		n.VM.BindNative("test_gate", g.native)
	}
	home := c.Nodes[1]
	job, err := home.Mgr.StartJob("main", value.Int(0)) // divisor 0 → crash
	if err != nil {
		t.Fatal(err)
	}
	<-g.reached
	done := make(chan error, 1)
	go func() {
		_, merr := home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 2, Flow: sodee.FlowReturnHome})
		done <- merr
	}()
	time.Sleep(2 * time.Millisecond)
	close(g.release)
	if merr := <-done; merr != nil {
		t.Fatal(merr)
	}
	_, jerr := job.Wait()
	if jerr == nil || !strings.Contains(jerr.Error(), "Arithmetic") {
		t.Fatalf("remote crash should surface at home, got %v", jerr)
	}
}

func TestDoubleMigrationSequential(t *testing.T) {
	// Migrate, let the segment come home, migrate again: SOD supports
	// repeated hops of the same job (the roaming pattern).
	c, g := sodCluster(t, []int{1, 2, 3}, true)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	<-g.reached
	done := make(chan error, 1)
	go func() {
		_, e1 := home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 2, Flow: sodee.FlowReturnHome})
		done <- e1
	}()
	time.Sleep(2 * time.Millisecond)
	close(g.release)
	if e := <-done; e != nil {
		t.Fatal(e)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d", res.I)
	}
}

// buildCrasherProgram assembles main(d) → work(d) where work divides by
// its argument after the gate — zero crashes remotely.
func buildCrasherProgram() *bytecode.Program {
	pb := asm.NewProgram()
	pb.Native("test_gate", 0, false)
	wk := pb.Func("work", true, "d")
	wk.Line().CallNat("test_gate", 0)
	wk.Line().Int(0).Store("i")
	wk.Label("loop")
	wk.Line().Load("i").Int(200000).Ge().Jnz("done")
	wk.Line().Load("i").Int(1).Add().Store("i")
	wk.Line().Jmp("loop")
	wk.Label("done")
	wk.Line().Int(100).Load("d").Div().RetV()
	mn := pb.Func("main", true, "d")
	mn.Line().Load("d").Call("work", 1).RetV()
	return pb.MustBuild()
}

// --- node-crash recovery ---

// startGatedJob starts a job on home, waits for it to reach the gate,
// and returns it with the gate still closed.
func startGatedJob(t *testing.T, home *sodee.Node, g *gate, iters int64) *sodee.Job {
	t.Helper()
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	<-g.reached
	return job
}

// migrateExpectingFailure issues the migration concurrently with the gate
// release and returns its error.
func migrateExpectingFailure(g *gate, do func() (*sodee.MigrationMetrics, error)) error {
	errCh := make(chan error, 1)
	go func() {
		_, merr := do()
		errCh <- merr
	}()
	time.Sleep(2 * time.Millisecond)
	close(g.release)
	return <-errCh
}

// TestCrashedDestPartialSegmentRecoversLocally: the destination dies
// between suspension and transfer of a one-frame segment; the captured
// frames are rebuilt in place and the job finishes at home.
func TestCrashedDestPartialSegmentRecoversLocally(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, true)
	home := c.Nodes[1]
	job := startGatedJob(t, home, g, testIters)

	c.Net.SetNodeDown(2, true)
	merr := migrateExpectingFailure(g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 2, Flow: sodee.FlowReturnHome})
	})
	if merr == nil || !strings.Contains(merr.Error(), "unreachable") {
		t.Fatalf("expected unreachable error, got %v", merr)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(testIters))
	}
}

// TestCrashedDestWholeStackRecoversLocally: a whole-stack export to a
// dead node re-attaches a rebuilt thread to the detached job.
func TestCrashedDestWholeStackRecoversLocally(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, true)
	home := c.Nodes[1]
	job := startGatedJob(t, home, g, testIters)

	c.Net.SetNodeDown(2, true)
	merr := migrateExpectingFailure(g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{
			NFrames: sodee.WholeStack, Dest: 2, Flow: sodee.FlowReturnHome,
		})
	})
	if merr == nil {
		t.Fatal("migration to a dead node should report failure")
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(testIters))
	}
}

// TestCrashedDestTotalFlowRecoversLocally: FlowTotal ships segment plus
// residual; both must be rebuilt locally when the destination is gone.
func TestCrashedDestTotalFlowRecoversLocally(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, true)
	home := c.Nodes[1]
	job := startGatedJob(t, home, g, testIters)

	c.Net.SetNodeDown(2, true)
	merr := migrateExpectingFailure(g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 2, Flow: sodee.FlowTotal})
	})
	if merr == nil {
		t.Fatal("migration to a dead node should report failure")
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(testIters))
	}
}

// TestAutoBalanceAroundCrashedNode is the mid-auto-migration crash case:
// a burst lands on node 1 while node 2 is dead. The balancer's gossip
// marks 2 failed, the scheduler routes every spill to node 3, and no job
// wedges.
func TestAutoBalanceAroundCrashedNode(t *testing.T) {
	c := cruncherCluster(t,
		sodee.NodeConfig{ID: 1, Preloaded: true, Cores: 1, Slow: 16},
		sodee.NodeConfig{ID: 2, Preloaded: true},
		sodee.NodeConfig{ID: 3, Preloaded: true},
	)
	c.Net.SetNodeDown(2, true)

	b := c.AutoBalance(policy.Threshold{}, sodee.BalanceOptions{Interval: 200 * time.Microsecond})
	defer b.Stop()

	const njobs = 5
	jobs := make([]*sodee.Job, njobs)
	seeds := make([]int64, njobs)
	for i := range jobs {
		seeds[i] = int64(40 + i)
		j, err := c.Nodes[1].Mgr.StartJob("main", value.Int(seeds[i]), value.Int(crunchIters))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	waitAll(t, jobs, seeds)
	b.Stop()

	if !b.Scheduler().Failed(2) {
		t.Error("gossip should have marked the dead node failed")
	}
	st := b.Stats()
	if st.MigrationsTo[2] != 0 {
		t.Errorf("balancer migrated %d jobs to the dead node", st.MigrationsTo[2])
	}
	if st.Migrations == 0 {
		t.Errorf("balancer should have spilled to the surviving node: %+v", st)
	}
}

// TestAutoBalanceCrashBetweenDecisionAndSend: the destination dies after
// the scheduler has already chosen it (stale gossip still advertises the
// node as idle). The migration fails in flight, the job recovers locally,
// and the node is marked failed for every later verdict.
func TestAutoBalanceCrashBetweenDecisionAndSend(t *testing.T) {
	c := cruncherCluster(t,
		sodee.NodeConfig{ID: 1, Preloaded: true, Cores: 1, Slow: 16},
		sodee.NodeConfig{ID: 2, Preloaded: true},
	)
	home := c.Nodes[1]

	// One gossip round while node 2 is alive: node 1 now holds a fresh
	// report advertising an idle peer. Reports deliver asynchronously, so
	// poll until node 2's lands.
	if _, errs := c.Nodes[2].Mgr.PublishLoad(); len(errs) != 0 {
		t.Fatalf("publish: %v", errs)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(home.Mgr.PeerSignals()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gossip report from node 2 never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// The node dies before any migration is attempted.
	c.Net.SetNodeDown(2, true)

	// Drive the decision loop by hand against the stale view: the policy
	// picks node 2, the transfer fails, the job must recover locally.
	sched := policy.NewScheduler(policy.Threshold{})
	const njobs = 3
	jobs := make([]*sodee.Job, njobs)
	seeds := make([]int64, njobs)
	for i := range jobs {
		seeds[i] = int64(60 + i)
		j, err := home.Mgr.StartJob("main", value.Int(seeds[i]), value.Int(crunchIters))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	view := policy.View{Local: home.Mgr.LocalSignals(), Peers: home.Mgr.PeerSignals()}
	d := sched.Decide(view)
	if !d.Migrate || d.Dest != 2 {
		t.Fatalf("stale view should still pick the dead node: %+v", d)
	}
	if _, merr := home.Mgr.MigrateSOD(jobs[0], sodee.SODOptions{
		NFrames: sodee.WholeStack, Dest: d.Dest, Flow: sodee.FlowReturnHome,
	}); merr == nil {
		t.Fatal("migration to the dead node should fail")
	} else {
		sched.MarkFailed(d.Dest)
	}
	// Later verdicts must never pick the dead node again.
	if d2 := sched.Decide(view); d2.Migrate && d2.Dest == 2 {
		t.Fatalf("scheduler re-picked the failed node: %+v", d2)
	}
	waitAll(t, jobs, seeds)
}

// TestAutoBalanceNodeRecoveryHeals: a crashed node that comes back is
// re-admitted as a destination once gossip reaches it again.
func TestAutoBalanceNodeRecoveryHeals(t *testing.T) {
	c := cruncherCluster(t,
		sodee.NodeConfig{ID: 1, Preloaded: true, Cores: 1, Slow: 16},
		sodee.NodeConfig{ID: 2, Preloaded: true},
	)
	c.Net.SetNodeDown(2, true)
	b := c.AutoBalance(policy.Threshold{}, sodee.BalanceOptions{Interval: 200 * time.Microsecond})
	defer b.Stop()

	// Let gossip observe the crash.
	deadline := time.Now().Add(5 * time.Second)
	for !b.Scheduler().Failed(2) {
		if time.Now().After(deadline) {
			t.Fatal("dead node never marked failed")
		}
		time.Sleep(time.Millisecond)
	}

	// Recovery: the node answers again; the next gossip round must heal
	// the mark, and a subsequent burst may spill onto it.
	c.Net.SetNodeDown(2, false)
	deadline = time.Now().Add(5 * time.Second)
	for b.Scheduler().Failed(2) {
		if time.Now().After(deadline) {
			t.Fatal("recovered node never marked alive")
		}
		time.Sleep(time.Millisecond)
	}

	const njobs = 4
	jobs := make([]*sodee.Job, njobs)
	seeds := make([]int64, njobs)
	for i := range jobs {
		seeds[i] = int64(80 + i)
		j, err := c.Nodes[1].Mgr.StartJob("main", value.Int(seeds[i]), value.Int(crunchIters))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	waitAll(t, jobs, seeds)
	b.Stop()
	if st := b.Stats(); st.MigrationsTo[2] == 0 {
		t.Errorf("burst never spilled to the recovered node: %+v", st)
	}
}
