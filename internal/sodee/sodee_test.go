package sodee_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/netsim"
	"repro/internal/preprocess"
	"repro/internal/serial"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/wire"
)

// buildWorkload assembles a three-level computation suitable for SOD
// tests: main → level2 → level3, where level3 loops over a Data object's
// fields (so a migrated level3 faults the object in remotely), updates a
// counter field (write-back) and allocates a Result object that escapes
// (re-homing). A test_gate native lets the driver align migration with a
// known stack shape.
func buildWorkload() *bytecode.Program {
	pb := asm.NewProgram()
	pb.Native("test_gate", 0, false)

	data := pb.Class("Data", "")
	data.Field("a", value.KindInt)
	data.Field("b", value.KindInt)
	data.Field("hits", value.KindInt)

	res := pb.Class("Result", "")
	res.Field("total", value.KindInt)

	l3 := pb.Func("level3", true, "d", "iters")
	l3.Line().CallNat("test_gate", 0)
	l3.Line().Int(0).Store("sum")
	l3.Line().Int(0).Store("i")
	l3.Label("loop")
	l3.Line().Load("i").Load("iters").Ge().Jnz("done")
	l3.Line().Load("sum").Load("d").GetF("Data", "a").Add().Store("sum")
	l3.Line().Load("sum").Load("d").GetF("Data", "b").Add().Store("sum")
	l3.Line().Load("i").Int(1).Add().Store("i")
	l3.Line().Jmp("loop")
	l3.Label("done")
	l3.Line().Load("d").Load("d").GetF("Data", "hits").Int(1).Add().PutF("Data", "hits")
	l3.Line().Load("sum").RetV()

	l2 := pb.Func("level2", true, "d", "iters")
	l2.Line().Load("d").Load("iters").Call("level3", 2).Store("s")
	l2.Line().Load("s").Int(1000).Add().RetV()

	mn := pb.Func("main", true, "d", "iters")
	mn.Line().Load("d").Load("iters").Call("level2", 2).Store("s")
	mn.Line().New("Result").Store("r")
	mn.Line().Load("r").Load("s").PutF("Result", "total")
	mn.Line().Load("r").GetF("Result", "total").RetV()

	return pb.MustBuild()
}

// gate coordinates the driver with the workload's execution point.
type gate struct {
	mu      sync.Mutex
	reached chan struct{}
	release chan struct{}
	fired   bool
}

func newGate() *gate {
	return &gate{reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) native(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
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

// sodCluster builds a SODEE cluster over the faulting-preprocessed
// workload with a gate bound on every node.
func sodCluster(t *testing.T, nodeIDs []int, preloadWorkers bool) (*sodee.Cluster, *gate) {
	t.Helper()
	prog := preprocess.MustPreprocess(buildWorkload(),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	var cfgs []sodee.NodeConfig
	for i, id := range nodeIDs {
		cfgs = append(cfgs, sodee.NodeConfig{
			ID: id, Preloaded: i == 0 || preloadWorkers,
		})
	}
	c, err := sodee.NewCluster(prog, netsim.Gigabit, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	g := newGate()
	for _, n := range c.Nodes {
		n.VM.BindNative("test_gate", g.native)
	}
	return c, g
}

// runLocal computes the expected result without migration.
func expectedResult(iters int64) int64 {
	// sum = iters*(3+4); +1000 in level2; Result.total in main.
	return iters*7 + 1000
}

func makeData(t *testing.T, n *sodee.Node) value.Ref {
	t.Helper()
	cid := n.Prog.ClassByName("Data")
	ref, err := n.VM.Heap.Alloc(cid, n.Prog.NumInstanceFields(cid))
	if err != nil {
		t.Fatal(err)
	}
	o := n.VM.Heap.MustGet(ref)
	o.Fields[0] = value.Int(3)
	o.Fields[1] = value.Int(4)
	o.Fields[2] = value.Int(0)
	return ref
}

// migrateWhileRunning starts the job, waits for the gate, issues the
// migration concurrently with releasing the gate, and returns the
// migration metrics.
func migrateWhileRunning(t *testing.T, g *gate, do func() (*sodee.MigrationMetrics, error)) *sodee.MigrationMetrics {
	t.Helper()
	<-g.reached
	type out struct {
		mm  *sodee.MigrationMetrics
		err error
	}
	ch := make(chan out, 1)
	go func() {
		mm, err := do()
		ch <- out{mm, err}
	}()
	time.Sleep(2 * time.Millisecond) // let the suspend request land first
	close(g.release)
	o := <-ch
	if o.err != nil {
		t.Fatalf("migration failed: %v", o.err)
	}
	return o.mm
}

const testIters = 300_000

func TestFig1aReturnHome(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, false)
	home := c.Nodes[1]
	d := makeData(t, home)

	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	mm := migrateWhileRunning(t, g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 2, Flow: sodee.FlowReturnHome})
	})
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(testIters))
	}
	if mm.StateBytes <= 0 || mm.Latency <= 0 {
		t.Errorf("suspicious metrics: %+v", mm)
	}
	// level3 ran remotely: the worker must have faulted Data in.
	worker := c.Nodes[2]
	if worker.ObjMan.Stats.Fetches == 0 {
		t.Error("destination never fetched the Data object")
	}
	// Write-back: hits incremented at the remote node must be visible home.
	if got := home.VM.Heap.MustGet(d).Fields[2].I; got != 1 {
		t.Errorf("Data.hits = %d at home, want 1 (write-back)", got)
	}
}

func TestFig1bTotalMigration(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, false)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	migrateWhileRunning(t, g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 2, Flow: sodee.FlowTotal})
	})
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(testIters))
	}
	if th := job.Thread(); th != nil {
		t.Error("job should have no home thread after total migration")
	}
}

func TestFig1cForwardWorkflow(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2, 3}, false)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	migrateWhileRunning(t, g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{
			NFrames: 1, Dest: 2, Flow: sodee.FlowForward, ForwardTo: 3,
		})
	})
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(testIters))
	}
}

func TestSODSegmentOfTwoFrames(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, false)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	migrateWhileRunning(t, g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 2, Dest: 2, Flow: sodee.FlowReturnHome})
	})
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(testIters))
	}
}

func TestClassShippingOnDemand(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, false) // worker not preloaded
	home := c.Nodes[1]
	worker := c.Nodes[2]
	d := makeData(t, home)
	dataCID := home.Prog.ClassByName("Data")
	if worker.VM.ClassLoaded(dataCID) {
		t.Fatal("worker should start cold")
	}
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	migrateWhileRunning(t, g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 2, Flow: sodee.FlowReturnHome})
	})
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if !worker.VM.ClassLoaded(dataCID) {
		t.Error("worker should have loaded Data on demand")
	}
}

func TestPinnedFrameRefusesMigration(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, false)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	<-g.reached
	// Pin the top frame while the thread is blocked in the gate native.
	th := job.Thread()
	th.Top().Pinned = true
	errCh := make(chan error, 1)
	go func() {
		_, merr := home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 2, Flow: sodee.FlowReturnHome})
		errCh <- merr
	}()
	time.Sleep(2 * time.Millisecond)
	close(g.release)
	if merr := <-errCh; merr == nil || !strings.Contains(merr.Error(), "pinned") {
		t.Fatalf("expected pinned-frame refusal, got %v", merr)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("job should still complete locally: %d", res.I)
	}
}

func TestMigrationLatencyBreakdownSane(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, true)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	mm := migrateWhileRunning(t, g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 1, Dest: 2, Flow: sodee.FlowReturnHome})
	})
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if mm.Capture <= 0 || mm.Transfer <= 0 || mm.Restore <= 0 {
		t.Errorf("all breakdown components should be positive: %+v", mm)
	}
	if mm.Latency != mm.Capture+mm.Transfer+mm.Restore {
		t.Error("latency should be the sum of its parts")
	}
}

func TestJobWithoutMigrationRunsLocally(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, true)
	close(g.release) // never gate
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(1000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(1000) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(1000))
	}
}

// TestNodeRefusesComparisonKinds: a runtime node serves only its own
// protocol. The comparison systems' messages (a G-JavaMPI process image,
// a JESSICA2 thread, Xen guest pages) must find no handler, so no peer
// can make a node adopt a heap it shipped.
func TestNodeRefusesComparisonKinds(t *testing.T) {
	c, _ := sodCluster(t, []int{1, 2}, true)
	src, dst := c.Nodes[1], c.Nodes[2]

	// A well-formed process image: one heap object and a stackless state.
	obj := makeData(t, src)
	wo := serial.SnapshotObject(obj, src.VM.Heap.MustGet(obj))
	cs := serial.EncodeCapturedState(&serial.CapturedState{HomeNode: int32(src.ID)}, src.Prog, src.Codec)
	proc := wire.NewWriter(256)
	proc.Varint(int64(src.ID))
	proc.Uvarint(1)
	proc.Blob(cs)
	proc.Uvarint(1)
	proc.Blob(serial.EncodeObject(&wo, src.Prog, src.Codec))
	proc.Uvarint(0)
	thread := wire.NewWriter(64)
	thread.Varint(int64(src.ID))
	thread.Uvarint(1)
	thread.Blob(cs)

	before := dst.VM.Heap.NumObjects()
	for _, m := range []struct {
		kind    netsim.MsgKind
		payload []byte
	}{
		{netsim.KindProcMigrate, proc.Bytes()},
		{netsim.KindThreadMigrate, thread.Bytes()},
		{netsim.KindPage, make([]byte, 4096)},
	} {
		if _, err := src.EP.Call(dst.ID, m.kind, m.payload); err == nil || !strings.Contains(err.Error(), "no handler") {
			t.Errorf("kind %d: err = %v, want no handler", m.kind, err)
		}
	}
	if after := dst.VM.Heap.NumObjects(); after != before {
		t.Errorf("destination heap grew from %d to %d objects", before, after)
	}
}
