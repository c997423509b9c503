package objman_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/netsim"
	"repro/internal/objman"
	"repro/internal/serial"
	"repro/internal/value"
	"repro/internal/vm"
)

// world wires two nodes with object managers over an unshaped fabric.
type world struct {
	prog     *bytecode.Program
	net      *netsim.Network
	vmA, vmB *vm.VM
	omA, omB *objman.Manager
	boxClass int32
}

func newWorld(t *testing.T) *world {
	t.Helper()
	pb := asm.NewProgram()
	c := pb.Class("Box", "")
	c.Field("v", value.KindInt)
	c.Field("next", value.KindRef)
	pb.Func("main", true).Int(0).RetV()
	prog := pb.MustBuild()

	net := netsim.NewNetwork(netsim.Unlimited)
	vmA := vm.New(prog, 1, true)
	vmB := vm.New(prog, 2, true)
	w := &world{
		prog: prog, net: net, vmA: vmA, vmB: vmB,
		omA:      objman.New(vmA, prog, net.Node(1), serial.Fast),
		omB:      objman.New(vmB, prog, net.Node(2), serial.Fast),
		boxClass: prog.ClassByName("Box"),
	}
	return w
}

func (w *world) newBox(t *testing.T, v *vm.VM, val int64, next value.Ref) value.Ref {
	t.Helper()
	ref, err := v.Heap.Alloc(w.boxClass, 2)
	if err != nil {
		t.Fatal(err)
	}
	o := v.Heap.MustGet(ref)
	o.Fields[0] = value.Int(val)
	o.Fields[1] = value.RefVal(next)
	return ref
}

func TestFetchShallowAndCache(t *testing.T) {
	w := newWorld(t)
	inner := w.newBox(t, w.vmA, 2, value.NullRef)
	outer := w.newBox(t, w.vmA, 1, inner)

	local, raised := w.omB.Fetch(outer)
	if raised != nil {
		t.Fatalf("fetch: %+v", raised)
	}
	o := w.vmB.Heap.MustGet(local)
	if o.Fields[0].I != 1 {
		t.Errorf("value lost")
	}
	// Shallow: the next field still names the home object (remote here).
	if o.Fields[1].R != inner {
		t.Errorf("next = %v, want home ref %v", o.Fields[1].R, inner)
	}
	if w.vmB.Heap.IsLocal(o.Fields[1].R) {
		t.Error("nested object should not have been fetched")
	}
	// Cache: same home ref resolves without another RPC.
	before := w.omB.Stats.Fetches
	local2, _ := w.omB.Fetch(outer)
	if local2 != local {
		t.Error("cache miss on repeated fetch")
	}
	if w.omB.Stats.Fetches != before {
		t.Error("repeated fetch issued an RPC")
	}
	if w.omB.Stats.CacheHits == 0 {
		t.Error("cache hit not counted")
	}
}

func TestBringObjSemantics(t *testing.T) {
	w := newWorld(t)
	box := w.newBox(t, w.vmA, 9, value.NullRef)
	th, _ := w.vmB.NewThread(w.prog.MethodByName("main"))

	// Remote ref → fetched local copy.
	res, raised := w.omB.BringObj(th, []value.Value{value.RefVal(box)})
	if raised != nil {
		t.Fatalf("%+v", raised)
	}
	if !w.vmB.Heap.IsLocal(res.R) {
		t.Error("bringObj should return a local ref")
	}
	// Local ref → identity.
	res2, _ := w.omB.BringObj(th, []value.Value{res})
	if res2.R != res.R {
		t.Error("local bringObj should be identity")
	}
	// Null → application NPE.
	if _, raised := w.omB.BringObj(th, []value.Value{value.Null()}); raised == nil ||
		raised.ExClass != bytecode.ExNullPointer {
		t.Error("null should raise application NPE")
	}
	// Primitive → pass-through.
	if res3, raised := w.omB.BringObj(th, []value.Value{value.Int(5)}); raised != nil || res3.I != 5 {
		t.Error("primitive bringObj should be identity")
	}
}

func TestUpdatesFlushToHomeNode(t *testing.T) {
	w := newWorld(t)
	box := w.newBox(t, w.vmA, 10, value.NullRef)
	local, _ := w.omB.Fetch(box)
	o := w.vmB.Heap.MustGet(local)
	o.Fields[0] = value.Int(99)
	o.Dirty = true

	flushes := w.omB.CollectUpdates(-1)
	fm, ok := flushes[1]
	if !ok || len(fm.Updated) != 1 {
		t.Fatalf("updates not grouped by home: %+v", flushes)
	}
	if _, err := w.omA.ApplyFlush(fm); err != nil {
		t.Fatal(err)
	}
	if got := w.vmA.Heap.MustGet(box).Fields[0].I; got != 99 {
		t.Errorf("master = %d, want 99", got)
	}
	if w.vmB.Heap.MustGet(local).Dirty {
		t.Error("dirty flag should clear after collection")
	}
}

func TestFreshObjectsRehomedWithRewrittenRefs(t *testing.T) {
	w := newWorld(t)
	// Node 2 builds a 2-element list and returns its head.
	head := w.newBox(t, w.vmB, 1, value.NullRef)
	tail := w.newBox(t, w.vmB, 2, value.NullRef)
	w.vmB.Heap.MustGet(head).Fields[1] = value.RefVal(tail)

	fm := w.omB.CollectResult(value.RefVal(head), true, "")
	if len(fm.Fresh) != 2 {
		t.Fatalf("fresh closure = %d objects, want 2", len(fm.Fresh))
	}
	res, err := w.omA.ApplyFlush(fm)
	if err != nil {
		t.Fatal(err)
	}
	ho := w.vmA.Heap.Get(res.R)
	if ho == nil {
		t.Fatal("result not re-homed")
	}
	if ho.Fields[0].I != 1 {
		t.Error("head value lost")
	}
	to := w.vmA.Heap.Get(ho.Fields[1].R)
	if to == nil || to.Fields[0].I != 2 {
		t.Error("tail ref not rewritten to the re-homed copy")
	}
}

func TestUpdateReferencingFreshObject(t *testing.T) {
	w := newWorld(t)
	box := w.newBox(t, w.vmA, 1, value.NullRef)
	local, _ := w.omB.Fetch(box)
	// Node 2 allocates a fresh object and links it from the cached copy.
	fresh := w.newBox(t, w.vmB, 7, value.NullRef)
	lo := w.vmB.Heap.MustGet(local)
	lo.Fields[1] = value.RefVal(fresh)
	lo.Dirty = true

	flushes := w.omB.CollectUpdates(-1)
	fm := flushes[1]
	if fm == nil || len(fm.Fresh) != 1 {
		t.Fatalf("fresh escape not collected: %+v", fm)
	}
	if _, err := w.omA.ApplyFlush(fm); err != nil {
		t.Fatal(err)
	}
	master := w.vmA.Heap.MustGet(box)
	linked := w.vmA.Heap.Get(master.Fields[1].R)
	if linked == nil || linked.Fields[0].I != 7 {
		t.Error("fresh object not re-homed and linked at master")
	}
}

func TestServeUnknownObjectFails(t *testing.T) {
	w := newWorld(t)
	bogus := value.MakeRef(1, 999999)
	if _, raised := w.omB.Fetch(bogus); raised == nil {
		t.Error("fetching a dangling ref should fail")
	}
}

func TestResetCache(t *testing.T) {
	w := newWorld(t)
	box := w.newBox(t, w.vmA, 1, value.NullRef)
	w.omB.Fetch(box) //nolint:errcheck
	w.omB.ResetCache()
	before := w.omB.Stats.Fetches
	w.omB.Fetch(box) //nolint:errcheck
	if w.omB.Stats.Fetches != before+1 {
		t.Error("reset cache should force a refetch")
	}
}
