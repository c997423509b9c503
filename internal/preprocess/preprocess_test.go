package preprocess_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/preprocess"
	"repro/internal/value"
	"repro/internal/vm"
)

// buildGeometry assembles the paper's running example (Fig 4/5):
//
//	class Geometry { Random r; Point p; void displaceX() { p.x = r.nextInt() + (int) p.getX(); } }
//
// with Random.nextInt a deterministic counter, so original and transformed
// programs can be compared for identical results.
func buildGeometry() *bytecode.Program {
	pb := asm.NewProgram()

	rnd := pb.Class("Random", "")
	rnd.Field("seed", value.KindInt)
	next := rnd.Method("nextInt", true)
	next.Line().Load("this").Load("this").GetF("Random", "seed").Int(1103515245).Mul().Int(12345).Add().Int(1<<31).Mod().PutF("Random", "seed")
	next.Line().Load("this").GetF("Random", "seed").RetV()

	pt := pb.Class("Point", "")
	pt.Field("x", value.KindInt)
	getX := pt.Method("getX", true)
	getX.Line().Load("this").GetF("Point", "x").I2F().RetV()

	geo := pb.Class("Geometry", "")
	geo.Field("r", value.KindRef)
	geo.Field("p", value.KindRef)
	dx := geo.Method("displaceX", false)
	// p.x = r.nextInt() + (int) p.getX()  — nested calls inside one statement.
	dx.Line().
		Load("this").GetF("Geometry", "p").
		Load("this").GetF("Geometry", "r").CallV("nextInt", 1).
		Load("this").GetF("Geometry", "p").CallV("getX", 1).F2I().
		Add().
		PutF("Point", "x")
	dx.Line().Ret()

	mk := pb.Func("makeGeometry", true, "seed")
	mk.Line().New("Geometry").Store("g")
	mk.Line().New("Random").Store("r")
	mk.Line().Load("r").Load("seed").PutF("Random", "seed")
	mk.Line().New("Point").Store("p")
	mk.Line().Load("p").Int(100).PutF("Point", "x")
	mk.Line().Load("g").Load("r").PutF("Geometry", "r")
	mk.Line().Load("g").Load("p").PutF("Geometry", "p")
	mk.Line().Load("g").RetV()

	mb := pb.Func("main", true, "seed", "iters")
	mb.Line().Load("seed").Call("makeGeometry", 1).Store("g")
	mb.Line().Int(0).Store("i")
	mb.Label("loop")
	mb.Line().Load("i").Load("iters").Ge().Jnz("done")
	mb.Line().Load("g").Call("Geometry.displaceX", 1)
	mb.Line().Load("i").Int(1).Add().Store("i")
	mb.Line().Jmp("loop")
	mb.Label("done")
	mb.Line().Load("g").GetF("Geometry", "p").GetF("Point", "x").RetV()

	return pb.MustBuild()
}

func runProg(t *testing.T, p *bytecode.Program, entry string, bind func(*vm.VM), args ...value.Value) (value.Value, error) {
	t.Helper()
	v := vm.New(p, 1, true)
	v.BindNativeIfDeclared(preprocess.NatBringObj, identityBring)
	v.BindNativeIfDeclared(preprocess.NatRstLocal, unboundRestore)
	v.BindNativeIfDeclared(preprocess.NatRstPC, unboundRestore)
	if bind != nil {
		bind(v)
	}
	mid := p.MethodByName(entry)
	if mid < 0 {
		t.Fatalf("no method %q", entry)
	}
	return v.RunMain(mid, args...)
}

// identityBring is the degenerate object manager for single-node runs:
// local refs come back unchanged; nulls become application NPEs.
func identityBring(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
	r := args[0]
	if r.Kind != value.KindRef || r.R == value.NullRef {
		return value.Value{}, &vm.Raised{ExClass: bytecode.ExNullPointer, Message: "null at home"}
	}
	return r, nil
}

func unboundRestore(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
	return value.Value{}, &vm.Raised{ExClass: bytecode.ExIllegalState, Message: "no restore context"}
}

func TestPreprocessModesPreserveSemantics(t *testing.T) {
	orig := buildGeometry()
	want, err := runProg(t, orig, "main", nil, value.Int(7), value.Int(25))
	if err != nil {
		t.Fatal(err)
	}

	for _, opts := range []preprocess.Options{
		{Mode: preprocess.ModeNone, Restore: false},
		{Mode: preprocess.ModeNone, Restore: true},
		{Mode: preprocess.ModeFaulting, Restore: true},
		{Mode: preprocess.ModeStatusCheck, Restore: false},
	} {
		name := fmt.Sprintf("%v-restore=%v", opts.Mode, opts.Restore)
		pp, rep, err := preprocess.Preprocess(orig, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mr := range rep.Methods {
			if !mr.Lifted && mr.Reason != "pragma nopreprocess" {
				t.Errorf("%s: method %s not lifted: %s", name, mr.Name, mr.Reason)
			}
		}
		got, err := runProg(t, pp, "main", nil, value.Int(7), value.Int(25))
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
}

func TestPreprocessSweepsParameterSpace(t *testing.T) {
	orig := buildGeometry()
	pp := preprocess.MustPreprocess(orig, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	for seed := int64(1); seed <= 5; seed++ {
		for iters := int64(0); iters <= 8; iters += 2 {
			want, err1 := runProg(t, orig, "main", nil, value.Int(seed), value.Int(iters))
			got, err2 := runProg(t, pp, "main", nil, value.Int(seed), value.Int(iters))
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed=%d iters=%d: err mismatch %v vs %v", seed, iters, err1, err2)
			}
			if err1 == nil && !got.Equal(want) {
				t.Errorf("seed=%d iters=%d: got %v, want %v", seed, iters, got, want)
			}
		}
	}
}

func TestMSPsAtEveryStatementStart(t *testing.T) {
	orig := buildGeometry()
	pp := preprocess.MustPreprocess(orig, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	m := pp.Methods[pp.MethodByName("Geometry.displaceX")]
	if len(m.MSPs) < 3 {
		t.Fatalf("displaceX should have ≥3 MSPs after flattening (the paper's three statements), got %d: %v\n%s",
			len(m.MSPs), m.MSPs, bytecode.Disassemble(pp, m))
	}
	if m.MSPs[0] != 0 {
		t.Errorf("first MSP should be pc 0, got %d", m.MSPs[0])
	}
	// Every MSP coincides with a line start.
	starts := make(map[int32]bool)
	for _, le := range m.Lines {
		starts[le.PC] = true
	}
	for _, pc := range m.MSPs {
		if !starts[pc] {
			t.Errorf("MSP %d is not a statement start", pc)
		}
	}
}

func TestFig5CodeSizeOrdering(t *testing.T) {
	orig := buildGeometry()
	const method = "Geometry.displaceX"
	origSize := orig.Methods[orig.MethodByName(method)].CodeSize()

	_, repCheck, err := preprocess.Preprocess(orig, preprocess.Options{Mode: preprocess.ModeStatusCheck})
	if err != nil {
		t.Fatal(err)
	}
	_, repFault, err := preprocess.Preprocess(orig, preprocess.Options{Mode: preprocess.ModeFaulting})
	if err != nil {
		t.Fatal(err)
	}
	checkSize := repCheck.SizeOf(method)
	faultSize := repFault.SizeOf(method)
	// Fig 5: original 501 B < status checks 667 B < fault handlers 902 B.
	if !(origSize < checkSize && checkSize < faultSize) {
		t.Errorf("size ordering violated: orig=%d check=%d fault=%d", origSize, checkSize, faultSize)
	}
}

// remoteWorld simulates a home node's heap for fault-in tests: the test VM
// runs as node 1; objects "live" at node 2 and are fetched through a fake
// object manager.
type remoteWorld struct {
	home  map[value.Ref]*vm.Object  // home-ref -> master object
	cache map[value.Ref]value.Value // home-ref -> local ref (per-VM cache)
	fetch int
}

func (w *remoteWorld) bring(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
	r := args[0]
	if r.Kind != value.KindRef || r.R == value.NullRef {
		return value.Value{}, &vm.Raised{ExClass: bytecode.ExNullPointer, Message: "null at home"}
	}
	if t.VM.Heap.IsLocal(r.R) {
		return r, nil
	}
	if lv, ok := w.cache[r.R]; ok {
		return lv, nil
	}
	master, ok := w.home[r.R]
	if !ok {
		return value.Value{}, &vm.Raised{ExClass: bytecode.ExIllegalState, Message: "unknown remote ref"}
	}
	w.fetch++
	clone := *master
	clone.Fields = append([]value.Value(nil), master.Fields...)
	clone.Home = r.R
	local, err := t.VM.Heap.Adopt(&clone)
	if err != nil {
		return value.Value{}, &vm.Raised{ExClass: bytecode.ExOutOfMemory}
	}
	lv := value.RefVal(local)
	w.cache[r.R] = lv
	return lv, nil
}

func TestObjectFaultingFetchesRemoteObjects(t *testing.T) {
	pb := asm.NewProgram()
	c := pb.Class("Cell", "")
	c.Field("v", value.KindInt)
	c.Field("next", value.KindRef)
	mb := pb.Func("main", true, "head")
	// Sum cell.v over a 3-element remote linked list.
	mb.Line().Int(0).Store("sum")
	mb.Label("loop")
	mb.Line().Load("head").Null().Eq().Jnz("done")
	mb.Line().Load("sum").Load("head").GetF("Cell", "v").Add().Store("sum")
	mb.Line().Load("head").GetF("Cell", "next").Store("head")
	mb.Line().Jmp("loop")
	mb.Label("done")
	mb.Line().Load("sum").RetV()
	orig := pb.MustBuild()
	pp := preprocess.MustPreprocess(orig, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})

	cellID := pp.ClassByName("Cell")
	w := &remoteWorld{home: map[value.Ref]*vm.Object{}, cache: map[value.Ref]value.Value{}}
	// Home (node 2) list: 10 -> 20 -> 30.
	r3 := value.MakeRef(2, 3)
	r2 := value.MakeRef(2, 2)
	r1 := value.MakeRef(2, 1)
	w.home[r3] = &vm.Object{Class: cellID, Status: 1, Fields: []value.Value{value.Int(30), value.Null()}}
	w.home[r2] = &vm.Object{Class: cellID, Status: 1, Fields: []value.Value{value.Int(20), value.RefVal(r3)}}
	w.home[r1] = &vm.Object{Class: cellID, Status: 1, Fields: []value.Value{value.Int(10), value.RefVal(r2)}}

	res, err := runProg(t, pp, "main", func(v *vm.VM) {
		v.BindNative(preprocess.NatBringObj, w.bring)
	}, value.RefVal(r1))
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 60 {
		t.Errorf("sum = %d, want 60", res.I)
	}
	if w.fetch != 3 {
		t.Errorf("fetched %d objects, want 3 (one per cell)", w.fetch)
	}
}

func TestStatusCheckFetchesRemoteObjects(t *testing.T) {
	pb := asm.NewProgram()
	c := pb.Class("Box", "")
	c.Field("v", value.KindInt)
	mb := pb.Func("main", true, "box")
	mb.Line().Load("box").GetF("Box", "v").Load("box").GetF("Box", "v").Add().RetV()
	orig := pb.MustBuild()
	pp := preprocess.MustPreprocess(orig, preprocess.Options{Mode: preprocess.ModeStatusCheck})

	boxID := pp.ClassByName("Box")
	w := &remoteWorld{home: map[value.Ref]*vm.Object{}, cache: map[value.Ref]value.Value{}}
	rb := value.MakeRef(2, 1)
	w.home[rb] = &vm.Object{Class: boxID, Status: 1, Fields: []value.Value{value.Int(21)}}

	res, err := runProg(t, pp, "main", func(v *vm.VM) {
		v.BindNative(preprocess.NatBringObj, w.bring)
	}, value.RefVal(rb))
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 42 {
		t.Errorf("got %d, want 42", res.I)
	}
	if w.fetch != 1 {
		t.Errorf("fetched %d, want 1", w.fetch)
	}
}

func TestApplicationNPEPassesThroughFaultHandlers(t *testing.T) {
	pb := asm.NewProgram()
	c := pb.Class("Box", "")
	c.Field("v", value.KindInt)
	mb := pb.Func("main", true)
	// Genuine null dereference inside a method with fault handlers: the
	// handlers catch RemoteAccessFault only, so the app-level NPE escapes.
	mb.Line().Null().Store("b")
	mb.Line().Load("b").GetF("Box", "v").RetV()
	orig := pb.MustBuild()
	pp := preprocess.MustPreprocess(orig, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})

	_, err := runProg(t, pp, "main", nil)
	var ue *vm.UncaughtError
	if !errors.As(err, &ue) || ue.ClassName != bytecode.ExNullPointer {
		t.Fatalf("err = %v, want application NullPointerException", err)
	}
}

func TestUserTryCatchSurvivesTransform(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true, "d")
	mb.Label("try")
	mb.Line().Int(100).Load("d").Div().Store("q")
	mb.Line().Load("q").RetV()
	mb.Label("endtry")
	mb.Label("catch")
	mb.Store("e")
	mb.Line().Int(-1).RetV()
	mb.Try("try", "endtry", "catch", bytecode.ExArithmetic)
	orig := pb.MustBuild()
	pp := preprocess.MustPreprocess(orig, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})

	res, err := runProg(t, pp, "main", nil, value.Int(4))
	if err != nil || res.I != 25 {
		t.Fatalf("normal path: res=%v err=%v", res, err)
	}
	res, err = runProg(t, pp, "main", nil, value.Int(0))
	if err != nil || res.I != -1 {
		t.Fatalf("exception path: res=%v err=%v", res, err)
	}
}

func TestNoPreprocessPragma(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true)
	mb.Pragma("nopreprocess")
	mb.Int(1).Int(2).Add().RetV()
	orig := pb.MustBuild()
	pp, rep, err := preprocess.Preprocess(orig, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	if err != nil {
		t.Fatal(err)
	}
	m := pp.Methods[pp.MethodByName("main")]
	if len(m.MSPs) != 0 {
		t.Error("nopreprocess method should carry no MSPs")
	}
	found := false
	for _, mr := range rep.Methods {
		if mr.Name == "main" && mr.Reason == "pragma nopreprocess" {
			found = true
		}
	}
	if !found {
		t.Error("report should record the pragma skip")
	}
	res, err := runProg(t, pp, "main", nil)
	if err != nil || res.I != 3 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestUnliftableMethodFallsBack(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true)
	mb.Int(21).Dup().Add().RetV() // Dup breaks the statement discipline
	orig := pb.MustBuild()
	pp, rep, err := preprocess.Preprocess(orig, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	if err != nil {
		t.Fatal(err)
	}
	var mr *preprocess.MethodReport
	for i := range rep.Methods {
		if rep.Methods[i].Name == "main" {
			mr = &rep.Methods[i]
		}
	}
	if mr == nil || mr.Lifted {
		t.Fatal("Dup method should not lift")
	}
	res, err := runProg(t, pp, "main", nil)
	if err != nil || res.I != 42 {
		t.Fatalf("fallback method should still run: res=%v err=%v", res, err)
	}
}

func TestPreprocessIsIdempotentOnResults(t *testing.T) {
	orig := buildGeometry()
	p1 := preprocess.MustPreprocess(orig, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	// Transforming an already-transformed program is not something the
	// pipeline does, but its *output* must still verify and run.
	want, err := runProg(t, p1, "main", nil, value.Int(3), value.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if want.Kind != value.KindInt {
		t.Fatal("expected int result")
	}
}
