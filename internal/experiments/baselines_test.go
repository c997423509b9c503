package experiments

import (
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/netsim"
	"repro/internal/preprocess"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/vm"
)

// buildWorkload assembles a three-level computation: main → level2 →
// level3, where level3 loops over a Data object's fields (so a migrated
// level3 without the heap faults the object in remotely) and updates a
// counter field. A test_gate native lets the test align migration with a
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

const testIters = 300_000

func expectedResult(iters int64) int64 {
	// sum = iters*(3+4); +1000 in level2; Result.total in main.
	return iters*7 + 1000
}

// gate holds the workload at test_gate until the test releases it.
type gate struct {
	mu      sync.Mutex
	reached chan struct{}
	release chan struct{}
	fired   bool
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

// baselineCluster builds a two-node cluster of sys over the workload
// preprocessed with opts, serving sys's migrations, with the gate bound
// on both nodes.
func baselineCluster(t *testing.T, sys System, opts preprocess.Options, imageBytes int64) (*sodee.Cluster, map[int]*xenGuest, *gate) {
	t.Helper()
	c, err := sodee.NewCluster(preprocess.MustPreprocess(buildWorkload(), opts), netsim.Gigabit,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	guests := serveBaselines(c, sys, imageBytes)
	g := &gate{reached: make(chan struct{}), release: make(chan struct{})}
	for _, n := range c.Nodes {
		n.VM.BindNative("test_gate", g.native)
	}
	return c, guests, g
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

// migrateWhileRunning waits for the gate, issues the migration
// concurrently with releasing the gate, and returns the migration
// metrics.
func migrateWhileRunning(t *testing.T, g *gate, do func() (*MigrationMetrics, error)) *MigrationMetrics {
	t.Helper()
	<-g.reached
	type out struct {
		mm  *MigrationMetrics
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

func TestProcessMigrationGJavaMPI(t *testing.T) {
	c, _, g := baselineCluster(t, SysGJavaMPI,
		preprocess.Options{Mode: preprocess.ModeNone, Restore: true}, 0)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	mm := migrateWhileRunning(t, g, func() (*MigrationMetrics, error) {
		return migrateProcess(home, job, 2)
	})
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(testIters))
	}
	if mm.HeapBytes == 0 {
		t.Error("process migration should report heap bytes")
	}
	// Eager copy: the destination should never fault objects in.
	if c.Nodes[2].ObjMan.Stats.Fetches != 0 {
		t.Errorf("eager process migration should not fault (%d fetches)", c.Nodes[2].ObjMan.Stats.Fetches)
	}
}

func TestThreadMigrationJessica2(t *testing.T) {
	c, _, g := baselineCluster(t, SysJessica2,
		preprocess.Options{Mode: preprocess.ModeStatusCheck, Restore: false}, 0)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters/10))
	if err != nil {
		t.Fatal(err)
	}
	migrateWhileRunning(t, g, func() (*MigrationMetrics, error) {
		return migrateThread(home, job, 2)
	})
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters/10) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(testIters/10))
	}
	// DSM: the destination fetched the Data object through status checks.
	if c.Nodes[2].ObjMan.Stats.Fetches == 0 {
		t.Error("thread migration should fetch heap objects on demand")
	}
}

func TestVMMigrationXen(t *testing.T) {
	c, guests, g := baselineCluster(t, SysXen,
		preprocess.Options{Mode: preprocess.ModeNone, Restore: false}, 4<<20)
	home := c.Nodes[1]
	d := makeData(t, home)
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters/10))
	if err != nil {
		t.Fatal(err)
	}
	mm := migrateWhileRunning(t, g, func() (*MigrationMetrics, error) {
		return migrateVM(home, guests[1], job, 2)
	})
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters/10) {
		t.Errorf("result = %d, want %d", res.I, expectedResult(testIters/10))
	}
	if guests[1].location() != 2 {
		t.Errorf("guest location = %d, want 2 after handover", guests[1].location())
	}
	if mm.Rounds == 0 {
		t.Error("expected at least one pre-copy round")
	}
	if mm.Freeze <= 0 || mm.Freeze >= mm.Latency {
		t.Errorf("freeze (%v) should be a small part of latency (%v)", mm.Freeze, mm.Latency)
	}
}

func TestNewImageAllDirty(t *testing.T) {
	g := newXenGuest(1<<20, 1)
	if g.numPages != 256 {
		t.Errorf("pages = %d, want 256", g.numPages)
	}
	if g.dirtyCount() != g.numPages {
		t.Error("fresh image should be fully dirty (first pre-copy round sends everything)")
	}
}

func TestDrainClearsDirtySet(t *testing.T) {
	g := newXenGuest(1<<20, 1)
	n := g.drainDirty()
	if n != 256 {
		t.Errorf("drained %d, want 256", n)
	}
	if g.dirtyCount() != 0 {
		t.Error("drain should clear the set")
	}
}

func TestTouchDirtiesStablePages(t *testing.T) {
	g := newXenGuest(1<<20, 1)
	g.drainDirty()
	ref := value.MakeRef(1, 42)
	g.touch(ref, 100)
	first := g.dirtyCount()
	if first == 0 {
		t.Fatal("touch should dirty at least one page")
	}
	// Repeated writes to the same object hit the same pages.
	for i := 0; i < 100; i++ {
		g.touch(ref, 100)
	}
	if g.dirtyCount() > first+3 { // small allowance for background churn
		t.Errorf("hot-object writes dirtied %d pages (was %d); mapping not stable", g.dirtyCount(), first)
	}
}

func TestBigObjectDirtiesMorePagesButCapped(t *testing.T) {
	g := newXenGuest(16<<20, 1)
	g.drainDirty()
	g.touch(value.MakeRef(1, 7), 1<<20) // 1 MiB object
	n := g.dirtyCount()
	if n < 16 {
		t.Errorf("1MiB write dirtied only %d pages", n)
	}
	if n > 40 {
		t.Errorf("per-write dirtying should be capped, got %d", n)
	}
}

func TestScatteredWritesDirtyManyPages(t *testing.T) {
	g := newXenGuest(16<<20, 1)
	g.drainDirty()
	for i := uint64(1); i <= 1000; i++ {
		g.touch(value.MakeRef(1, i), 64)
	}
	if g.dirtyCount() < 500 {
		t.Errorf("1000 distinct objects dirtied only %d pages", g.dirtyCount())
	}
}
