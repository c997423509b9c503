package main

import (
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/preprocess"
	"repro/internal/value"
	"repro/internal/vm"
)

// The hop workloads run bench-local programs: a job loops until the
// benchmark closes its gate, so a job lives exactly as long as the hops
// the benchmark wants to make, and the iteration count the gate handed
// out makes the Go mirror exact.

// gateNative is the native each loop iteration calls: 1 = run another
// iteration, 0 = return.
const gateNative = "bench_more"

// gate is the per-cluster state behind gateNative. Only one hop job runs
// at a time, so one counter serves it.
type gate struct {
	mu    sync.Mutex
	open  bool
	calls int64 // iterations granted since the last reset
}

func (g *gate) native(*vm.Thread, []value.Value) (value.Value, *vm.Raised) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.open {
		return value.Int(0), nil
	}
	g.calls++
	return value.Int(1), nil
}

func (g *gate) reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.open, g.calls = true, 0
}

// close stops the loop and returns the final iteration count: no
// iteration can be granted after it returns.
func (g *gate) close() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.open = false
	return g.calls
}

// hopProgram is one hop workload's program, its entry point and its mirror.
type hopProgram struct {
	prog  *bytecode.Program // preprocessed for SOD execution
	entry string
	// seedStatics initializes the class statics on a node's VM; both
	// nodes get identical values before the first job.
	seedStatics func(v *vm.VM)
	// expected mirrors entry(seed) after n loop iterations.
	expected func(seed, n int64) int64
}

func compile(p *bytecode.Program) *bytecode.Program {
	return preprocess.MustPreprocess(p, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
}

// hotBias is the value of Hot.bias, folded into every iteration.
const hotBias = 9

// hotProgram has the shape of workloads.HotClass: a small statics block
// that never changes and padding methods that bulk the class bundle, so
// a repeat hop can reference almost everything in the link cache.
func hotProgram() *hopProgram {
	pb := asm.NewProgram()
	pb.Native(gateNative, 0, true)
	hot := pb.Class("Hot", "")
	hot.Static("bias", value.KindInt)
	for i := 0; i < 15; i++ {
		hot.Static(fmt.Sprintf("pad%d", i), value.KindInt)
	}
	for p := 0; p < 6; p++ {
		mb := hot.StaticMethod(fmt.Sprintf("fill%d", p), true, "x")
		mb.Line().Load("x").Store("y")
		for k := 0; k < 48; k++ {
			mb.Line().Load("y").Int(int64(k)).Add().Store("y")
		}
		mb.Line().Load("y").RetV()
	}
	cr := hot.StaticMethod("crunch", true, "seed")
	cr.Line().Int(0).Store("sum")
	cr.Label("loop")
	cr.Line().CallNat(gateNative, 0).Jz("done")
	cr.Line().Load("sum").Load("seed").Add().GetS("Hot", "bias").Add().Store("sum")
	cr.Line().Jmp("loop")
	cr.Label("done")
	cr.Line().Load("sum").RetV()
	prog := compile(pb.MustBuild())
	return &hopProgram{
		prog: prog, entry: "Hot.crunch",
		seedStatics: func(v *vm.VM) {
			v.Statics[prog.ClassByName("Hot")][0] = value.Int(hotBias)
		},
		expected: func(seed, n int64) int64 { return n * (seed + hotBias) },
	}
}

// churnStatics sizes the churn table so a hop ships over 100 KB.
const churnStatics = 10000

// churnValue is table entry k's initial value: large, so each entry
// costs the codec its full varint width.
func churnValue(k int) int64 { return int64(k)*0x9E3779B97F4A7 + 1<<60 }

// churnName is a short unique static name: the class bundle carries the
// name table, and that part of a hop is the part the link cache can reuse.
func churnName(k int) string {
	const digits = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	s := ""
	for {
		s += string(digits[k%len(digits)])
		k /= len(digits)
		if k == 0 {
			return s
		}
	}
}

// churnProgram's class carries a large statics table and rewrites its
// first entry on every iteration, so the statics unit a hop ships is new
// each time and the link cache cannot reuse it.
func churnProgram() *hopProgram {
	pb := asm.NewProgram()
	pb.Native(gateNative, 0, true)
	cl := pb.Class("Churn", "")
	for k := 0; k < churnStatics; k++ {
		cl.Static(churnName(k), value.KindInt)
	}
	head, tail := churnName(0), churnName(churnStatics-1)
	cr := cl.StaticMethod("crunch", true, "seed")
	cr.Line().Load("seed").Store("acc")
	cr.Line().Load("seed").PutS("Churn", head)
	cr.Line().Int(0).Store("i")
	cr.Label("loop")
	cr.Line().CallNat(gateNative, 0).Jz("done")
	cr.Line().Load("acc").Int(31).Mul().Load("i").Add().GetS("Churn", head).Add().
		GetS("Churn", tail).Add().Int(0xFFFF).And().Store("acc")
	cr.Line().Load("acc").PutS("Churn", head)
	cr.Line().Load("i").Int(1).Add().Store("i")
	cr.Line().Jmp("loop")
	cr.Label("done")
	cr.Line().Load("acc").RetV()
	prog := compile(pb.MustBuild())
	return &hopProgram{
		prog: prog, entry: "Churn.crunch",
		seedStatics: func(v *vm.VM) {
			st := v.Statics[prog.ClassByName("Churn")]
			for k := range st {
				st[k] = value.Int(churnValue(k))
			}
		},
		expected: func(seed, n int64) int64 {
			acc, head, tail := seed, seed, churnValue(churnStatics-1)
			for i := int64(0); i < n; i++ {
				acc = (acc*31 + i + head + tail) & 0xFFFF
				head = acc
			}
			return acc
		},
	}
}
