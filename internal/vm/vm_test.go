package vm_test

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/value"
	"repro/internal/vm"
)

// buildAndRun assembles a program with a single free function "main",
// runs it and returns the result.
func runMain(t *testing.T, build func(pb *asm.ProgramBuilder)) (value.Value, error) {
	t.Helper()
	pb := asm.NewProgram()
	build(pb)
	prog, err := pb.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	v := vm.New(prog, 1, true)
	return v.RunMain(prog.MethodByName("main"))
}

func TestArithmetic(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		mb := pb.Func("main", true)
		// ((10 + 2) * 3 - 4) / 2 % 5 = 32/2 % 5 = 16 % 5 = 1
		mb.Int(10).Int(2).Add().Int(3).Mul().Int(4).Sub().Int(2).Div().Int(5).Mod().RetV()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 1 {
		t.Errorf("got %v, want 1", res)
	}
}

func TestFloatArithmeticAndConversion(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		mb := pb.Func("main", true)
		mb.Float(1.5).Int(2).Add() // mixed → float 3.5
		mb.F2I().RetV()            // 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != value.KindInt || res.I != 3 {
		t.Errorf("got %v, want int 3", res)
	}
}

func TestDivisionByZeroRaises(t *testing.T) {
	_, err := runMain(t, func(pb *asm.ProgramBuilder) {
		mb := pb.Func("main", true)
		mb.Int(1).Int(0).Div().RetV()
	})
	var ue *vm.UncaughtError
	if !errors.As(err, &ue) || ue.ClassName != bytecode.ExArithmetic {
		t.Fatalf("err = %v, want uncaught ArithmeticException", err)
	}
}

func TestLocalsAndBranching(t *testing.T) {
	// sum 1..10 with a loop
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		mb := pb.Func("main", true)
		mb.Int(0).Store("sum")
		mb.Int(1).Store("i")
		mb.Label("loop")
		mb.Load("i").Int(10).Gt().Jnz("done")
		mb.Load("sum").Load("i").Add().Store("sum")
		mb.Load("i").Int(1).Add().Store("i")
		mb.Jmp("loop")
		mb.Label("done")
		mb.Load("sum").RetV()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 55 {
		t.Errorf("got %d, want 55", res.I)
	}
}

func TestRecursionFib(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		fib := pb.Func("fib", true, "n")
		fib.Load("n").Int(2).Lt().Jnz("base")
		fib.Load("n").Int(1).Sub().Call("fib", 1)
		fib.Load("n").Int(2).Sub().Call("fib", 1)
		fib.Add().RetV()
		fib.Label("base").Load("n").RetV()

		mb := pb.Func("main", true)
		mb.Int(15).Call("fib", 1).RetV()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 610 {
		t.Errorf("fib(15) = %d, want 610", res.I)
	}
}

func TestObjectsAndFields(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		pt := pb.Class("Point", "")
		pt.Field("x", value.KindInt)
		pt.Field("y", value.KindInt)
		getSum := pt.Method("sum", true)
		getSum.Load("this").GetF("Point", "x").Load("this").GetF("Point", "y").Add().RetV()

		mb := pb.Func("main", true)
		mb.New("Point").Store("p")
		mb.Load("p").Int(30).PutF("Point", "x")
		mb.Load("p").Int(12).PutF("Point", "y")
		mb.Load("p").CallV("sum", 1).RetV()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 42 {
		t.Errorf("got %d, want 42", res.I)
	}
}

func TestVirtualDispatchWithInheritance(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		a := pb.Class("Animal", "")
		a.Method("noise", true).Int(1).RetV()
		d := pb.Class("Dog", "Animal")
		d.Method("noise", true).Int(2).RetV()
		pb.Class("Cat", "Animal") // inherits Animal.noise

		mb := pb.Func("main", true)
		mb.New("Dog").CallV("noise", 1)
		mb.New("Cat").CallV("noise", 1)
		mb.Add().RetV() // 2 + 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 3 {
		t.Errorf("got %d, want 3", res.I)
	}
}

func TestStatics(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		c := pb.Class("Counter", "")
		c.Static("n", value.KindInt)
		mb := pb.Func("main", true)
		mb.Int(7).PutS("Counter", "n")
		mb.GetS("Counter", "n").GetS("Counter", "n").Add().RetV()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 14 {
		t.Errorf("got %d, want 14", res.I)
	}
}

func TestArraysAllKinds(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		mb := pb.Func("main", true)
		// int array
		mb.Int(3).NewArr(bytecode.ArrKindInt).Store("ai")
		mb.Load("ai").Int(0).Int(5).AStore()
		// float array
		mb.Int(2).NewArr(bytecode.ArrKindFloat).Store("af")
		mb.Load("af").Int(1).Float(2.5).AStore()
		// byte array
		mb.Int(4).NewArr(bytecode.ArrKindByte).Store("ab")
		mb.Load("ab").Int(2).Int(300).AStore() // truncates to 44
		// ref array
		mb.Int(1).NewArr(bytecode.ArrKindRef).Store("ar")
		mb.Load("ar").Int(0).New("Object").AStore()

		// ai[0] + int(af[1]*2) + ab[2] + arrlen(ar) = 5 + 5 + 44 + 1 = 55
		mb.Load("ai").Int(0).ALoad()
		mb.Load("af").Int(1).ALoad().Int(2).Mul().F2I().Add()
		mb.Load("ab").Int(2).ALoad().Add()
		mb.Load("ar").ArrLen().Add()
		mb.RetV()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 55 {
		t.Errorf("got %d, want 55", res.I)
	}
}

func TestIndexOutOfBounds(t *testing.T) {
	_, err := runMain(t, func(pb *asm.ProgramBuilder) {
		mb := pb.Func("main", true)
		mb.Int(2).NewArr(bytecode.ArrKindInt).Store("a")
		mb.Load("a").Int(5).ALoad().RetV()
	})
	var ue *vm.UncaughtError
	if !errors.As(err, &ue) || ue.ClassName != bytecode.ExIndexOutOfBounds {
		t.Fatalf("err = %v, want IndexOutOfBoundsException", err)
	}
}

func TestNullPointerOnNullDeref(t *testing.T) {
	_, err := runMain(t, func(pb *asm.ProgramBuilder) {
		c := pb.Class("C", "")
		c.Field("f", value.KindInt)
		mb := pb.Func("main", true)
		mb.Null().GetF("C", "f").RetV()
	})
	var ue *vm.UncaughtError
	if !errors.As(err, &ue) || ue.ClassName != bytecode.ExNullPointer {
		t.Fatalf("err = %v, want NullPointerException", err)
	}
}

func TestTryCatch(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		c := pb.Class("C", "")
		c.Field("f", value.KindInt)
		mb := pb.Func("main", true)
		mb.Label("try")
		mb.Null().GetF("C", "f").Pop()
		mb.Int(0).RetV() // unreachable
		mb.Label("endtry")
		mb.Label("catch")
		mb.Pop() // discard exception object
		mb.Int(99).RetV()
		mb.Try("try", "endtry", "catch", bytecode.ExNullPointer)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 99 {
		t.Errorf("got %d, want 99", res.I)
	}
}

func TestExceptionUnwindsCallStack(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		thrower := pb.Func("thrower", false)
		thrower.ThrowNew(bytecode.ExIllegalState, "boom")
		thrower.Ret()

		mid := pb.Func("mid", false)
		mid.Call("thrower", 0).Ret()

		mb := pb.Func("main", true)
		mb.Label("try")
		mb.Call("mid", 0)
		mb.Int(0).RetV()
		mb.Label("endtry")
		mb.Label("catch")
		mb.GetF(bytecode.ExIllegalState, "message").Store("msg")
		mb.Int(7).RetV()
		mb.Try("try", "endtry", "catch", bytecode.ExIllegalState)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 7 {
		t.Errorf("got %d, want 7", res.I)
	}
}

func TestCatchByExceptionSuperclass(t *testing.T) {
	// Every builtin exception extends Object; a catch of Object catches all.
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		mb := pb.Func("main", true)
		mb.Label("try")
		mb.Int(1).Int(0).Div().Pop()
		mb.Int(0).RetV()
		mb.Label("endtry")
		mb.Label("catch")
		mb.Pop().Int(5).RetV()
		mb.Try("try", "endtry", "catch", bytecode.ClassObject)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 5 {
		t.Errorf("got %d, want 5", res.I)
	}
}

func TestNativeCall(t *testing.T) {
	pb := asm.NewProgram()
	pb.Native("double", 1, true)
	mb := pb.Func("main", true)
	mb.Int(21).CallNat("double", 1).RetV()
	prog := pb.MustBuild()

	v := vm.New(prog, 1, true)
	v.BindNative("double", func(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
		return value.Int(args[0].I * 2), nil
	})
	res, err := v.RunMain(prog.MethodByName("main"))
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 42 {
		t.Errorf("got %d, want 42", res.I)
	}
}

func TestNativeRaises(t *testing.T) {
	pb := asm.NewProgram()
	pb.Native("boom", 0, false)
	mb := pb.Func("main", true)
	mb.CallNat("boom", 0).Int(0).RetV()
	prog := pb.MustBuild()

	v := vm.New(prog, 1, true)
	v.BindNative("boom", func(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
		return value.Value{}, &vm.Raised{ExClass: bytecode.ExIllegalState, Message: "from native"}
	})
	_, err := v.RunMain(prog.MethodByName("main"))
	var ue *vm.UncaughtError
	if !errors.As(err, &ue) || ue.Message != "from native" {
		t.Fatalf("err = %v, want native-raised IllegalState", err)
	}
}

func TestStringsInterning(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true)
	mb.Str("hello").Str("hello").Eq().RetV() // interned → same ref
	prog := pb.MustBuild()
	v := vm.New(prog, 1, true)
	res, err := v.RunMain(prog.MethodByName("main"))
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 1 {
		t.Error("identical string literals should intern to the same object")
	}
}

func TestTSwitch(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		mb := pb.Func("main", true, "x")
		mb.Load("x")
		mb.TSwitch([]int32{10, 20}, []string{"ten", "twenty"}, "other")
		mb.Label("ten").Int(1).RetV()
		mb.Label("twenty").Int(2).RetV()
		mb.Label("other").Int(3).RetV()
	})
	_ = res
	_ = err
	// runMain passes zero args to a 1-arg main; do it manually instead.
	pb := asm.NewProgram()
	mb := pb.Func("main", true, "x")
	mb.Load("x")
	mb.TSwitch([]int32{10, 20}, []string{"ten", "twenty"}, "other")
	mb.Label("ten").Int(1).RetV()
	mb.Label("twenty").Int(2).RetV()
	mb.Label("other").Int(3).RetV()
	prog := pb.MustBuild()
	for _, tc := range []struct{ in, want int64 }{{10, 1}, {20, 2}, {99, 3}} {
		v := vm.New(prog, 1, true)
		res, err := v.RunMain(prog.MethodByName("main"), value.Int(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		if res.I != tc.want {
			t.Errorf("switch(%d) = %d, want %d", tc.in, res.I, tc.want)
		}
	}
}

func TestInstanceOfAndCheckCast(t *testing.T) {
	res, err := runMain(t, func(pb *asm.ProgramBuilder) {
		pb.Class("A", "")
		pb.Class("B", "A")
		mb := pb.Func("main", true)
		mb.New("B").Store("b")
		mb.Load("b").InstOf("A") // 1
		mb.Load("b").InstOf("B") // 1
		mb.New("A").InstOf("B")  // 0
		mb.Add().Add()           // 2
		mb.Load("b").CheckCast("A").Pop()
		mb.RetV()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 2 {
		t.Errorf("got %d, want 2", res.I)
	}
}

func TestCheckCastFailure(t *testing.T) {
	_, err := runMain(t, func(pb *asm.ProgramBuilder) {
		pb.Class("A", "")
		pb.Class("B", "A")
		mb := pb.Func("main", true)
		mb.New("A").CheckCast("B").Pop()
		mb.Int(0).RetV()
	})
	var ue *vm.UncaughtError
	if !errors.As(err, &ue) || ue.ClassName != bytecode.ExClassCast {
		t.Fatalf("err = %v, want ClassCastException", err)
	}
}

func TestOutOfMemory(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true)
	mb.Label("loop")
	mb.Int(1 << 16).NewArr(bytecode.ArrKindInt).Pop()
	mb.Jmp("loop")
	prog := pb.MustBuild()
	v := vm.New(prog, 1, true)
	v.Heap.SetLimit(1 << 20)
	_, err := v.RunMain(prog.MethodByName("main"))
	var ue *vm.UncaughtError
	if !errors.As(err, &ue) || ue.ClassName != bytecode.ExOutOfMemory {
		t.Fatalf("err = %v, want OutOfMemoryError", err)
	}
}

func TestVerifierRejectsBadStackDepth(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true)
	mb.Add().RetV() // pops 2 from empty stack
	if _, err := pb.Build(); err == nil {
		t.Fatal("verifier should reject stack underflow")
	} else if !strings.Contains(err.Error(), "pops") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestVerifierRejectsFallOffEnd(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", false)
	mb.Int(1).Pop() // no ret
	if _, err := pb.Build(); err == nil {
		t.Fatal("verifier should reject falling off code end")
	}
}

func TestVerifierRejectsInconsistentJoin(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true, "x")
	mb.Load("x").Jnz("push2")
	mb.Int(1).Jmp("join")
	mb.Label("push2").Int(1).Int(2)
	mb.Label("join").RetV() // depth 1 vs 2 at join
	if _, err := pb.Build(); err == nil {
		t.Fatal("verifier should reject inconsistent join depths")
	}
}

func TestVerifierComputesMaxStack(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true)
	mb.Int(1).Int(2).Int(3).Add().Add().RetV()
	prog := pb.MustBuild()
	m := prog.Methods[prog.MethodByName("main")]
	if m.MaxStack != 3 {
		t.Errorf("MaxStack = %d, want 3", m.MaxStack)
	}
}

func TestDisassembleRoundDoesNotPanic(t *testing.T) {
	pb := asm.NewProgram()
	c := pb.Class("Geometry", "")
	c.Field("x", value.KindInt)
	c.Static("origin", value.KindRef)
	m := c.Method("move", false, "dx")
	m.Line().Load("this").Load("this").GetF("Geometry", "x").Load("dx").Add().PutF("Geometry", "x")
	m.Line().Ret()
	prog := pb.MustBuild()
	out := bytecode.DisassembleProgram(prog)
	if !strings.Contains(out, "Geometry.move") || !strings.Contains(out, "putf") {
		t.Errorf("unexpected disassembly:\n%s", out)
	}
}

func TestThreadSuspendResumeAtMSP(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true)
	mb.Int(0).Store("i")
	mb.Label("loop").MSP()
	mb.Load("i").Int(5_000_000).Ge().Jnz("done")
	mb.Load("i").Int(1).Add().Store("i")
	mb.Jmp("loop")
	mb.Label("done").Load("i").RetV()
	prog := pb.MustBuild()

	v := vm.New(prog, 1, true)
	v.Profile.AgentLoaded = true
	th, err := v.NewThread(prog.MethodByName("main"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { th.Run(); close(done) }()

	ack, err := th.RequestSuspend()
	if err != nil {
		t.Fatal(err)
	}
	<-ack
	if th.State() != vm.ThreadParked {
		t.Fatalf("state = %v, want parked", th.State())
	}
	top := th.Top()
	if !top.Method.IsMSP(top.PC) {
		t.Errorf("parked at pc %d which is not an MSP", top.PC)
	}
	if len(top.Stack) != 0 {
		t.Errorf("parked with non-empty operand stack (%d)", len(top.Stack))
	}
	if err := th.Resume(); err != nil {
		t.Fatal(err)
	}
	<-done
	if th.Err != nil {
		t.Fatal(th.Err)
	}
	if th.Result.I != 5_000_000 {
		t.Errorf("result = %d", th.Result.I)
	}
}

// Resume races RequestSuspend from two goroutines. Every ack must mean
// the thread is parked and stays parked until the next Resume: a request
// landing just after Resume, before the resumed thread runs, has to wait
// for the next park instead of acking a thread that is running on. The
// stack read after each ack also lets -race see a running thread.
func TestSuspendRacingResumeAcksOnlyParked(t *testing.T) {
	pb := asm.NewProgram()
	inc := pb.Func("inc", true, "x")
	inc.Load("x").Int(1).Add().RetV()
	mb := pb.Func("main", true)
	mb.Int(0).Store("i")
	mb.Label("loop").MSP()
	mb.Load("i").Call("inc", 1).Store("i")
	mb.Jmp("loop")
	prog := pb.MustBuild()

	v := vm.New(prog, 1, true)
	v.Profile.AgentLoaded = true
	th, err := v.NewThread(prog.MethodByName("main"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { th.Run(); close(done) }()

	const rounds = 2000
	var turn sync.Mutex // one controller acts at a time; the race is with the thread
	stop, resumer := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(resumer)
		for {
			select {
			case <-stop:
				return
			default:
			}
			turn.Lock()
			if th.State() == vm.ThreadParked {
				th.Resume() //nolint:errcheck // only this goroutine resumes
			}
			turn.Unlock()
			runtime.Gosched()
		}
	}()
	for i := 0; i < rounds && !t.Failed(); i++ {
		turn.Lock()
		ack, err := th.RequestSuspend()
		if err != nil {
			turn.Unlock()
			t.Fatal(err)
		}
		<-ack
		depth, pc := th.Depth(), th.Top().PC
		for spin := 0; spin < 200; spin++ {
			if th.State() != vm.ThreadParked {
				t.Errorf("round %d: suspend acked, but the thread is %v", i, th.State())
				break
			}
			runtime.Gosched()
		}
		if th.Depth() != depth || th.Top().PC != pc {
			t.Errorf("round %d: stack moved after the ack", i)
		}
		turn.Unlock()
	}
	close(stop)
	<-resumer
	if t.Failed() {
		return // the thread may hold a stale resume action; Kill could block
	}
	turn.Lock()
	ack, err := th.RequestSuspend()
	turn.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	<-ack
	if err := th.Kill(); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestThreadKill(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true)
	mb.Label("loop").MSP()
	mb.Jmp("loop")
	prog := pb.MustBuild()
	v := vm.New(prog, 1, true)
	v.Profile.AgentLoaded = true
	th, _ := v.NewThread(prog.MethodByName("main"))
	done := make(chan struct{})
	go func() { th.Run(); close(done) }()
	ack, err := th.RequestSuspend()
	if err != nil {
		t.Fatal(err)
	}
	<-ack
	if err := th.Kill(); err != nil {
		t.Fatal(err)
	}
	<-done
	if th.Err == nil {
		t.Fatal("killed thread should report an error")
	}
}

func TestSuspendWithoutAgentFails(t *testing.T) {
	pb := asm.NewProgram()
	mb := pb.Func("main", true)
	mb.Int(1).RetV()
	prog := pb.MustBuild()
	v := vm.New(prog, 1, true) // AgentLoaded = false
	th, _ := v.NewThread(prog.MethodByName("main"))
	if _, err := th.RequestSuspend(); err == nil {
		t.Fatal("suspension without agent should fail")
	}
}

func TestRemoteRefRaisesRemoteFault(t *testing.T) {
	pb := asm.NewProgram()
	c := pb.Class("C", "")
	c.Field("f", value.KindInt)
	mb := pb.Func("main", true, "obj")
	mb.Load("obj").GetF("C", "f").RetV()
	prog := pb.MustBuild()
	v := vm.New(prog, 1, true)
	remote := value.MakeRef(2, 99) // node 2 ≠ local node 1
	_, err := v.RunMain(prog.MethodByName("main"), value.RefVal(remote))
	var ue *vm.UncaughtError
	if !errors.As(err, &ue) || ue.ClassName != bytecode.ExRemoteFault {
		t.Fatalf("err = %v, want RemoteAccessFault", err)
	}
	if v.Counters.NPEFaults != 1 {
		t.Errorf("NPEFaults = %d, want 1", v.Counters.NPEFaults)
	}
}

func TestDirtyTrackingOnCachedObject(t *testing.T) {
	pb := asm.NewProgram()
	c := pb.Class("C", "")
	c.Field("f", value.KindInt)
	mb := pb.Func("main", false, "obj")
	mb.Load("obj").Int(9).PutF("C", "f").Ret()
	prog := pb.MustBuild()
	v := vm.New(prog, 1, true)
	cid := prog.ClassByName("C")
	ref, _ := v.Heap.Alloc(cid, 1)
	o := v.Heap.MustGet(ref)
	o.Home = value.MakeRef(2, 5) // pretend it's a cached copy
	if _, err := v.RunMain(prog.MethodByName("main"), value.RefVal(ref)); err != nil {
		t.Fatal(err)
	}
	if !o.Dirty {
		t.Error("write to cached object should set Dirty")
	}
}

func TestPinnedFrameFlagSurvivesCalls(t *testing.T) {
	// Structural check: pinning is per-frame metadata used by SOD
	// segmentation; ensure acquire/release resets it.
	pb := asm.NewProgram()
	inner := pb.Func("inner", true)
	inner.Int(3).RetV()
	mb := pb.Func("main", true)
	mb.Call("inner", 0).RetV()
	prog := pb.MustBuild()
	v := vm.New(prog, 1, true)
	res, err := v.RunMain(prog.MethodByName("main"))
	if err != nil || res.I != 3 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}
