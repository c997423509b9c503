package workloads

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/value"
	"repro/internal/vm"
)

// HotClass is the migration wire-format workload: a single class Hot
// whose crunch loop folds a static into every iteration. The class
// carries a block of int statics (so every whole-stack migration ships a
// statics payload) and a set of padding methods that bulk its code
// bundle (so the unchanged portion of a repeat migration dominates the
// wire cost, which is what the delta snapshot cache exists to elide). Entry point: Hot.crunch(seed, iters).
func HotClass() *bytecode.Program {
	return hotClassProgram("")
}

// HotClassWithMarker is HotClass with an entry probe: crunch's first
// statement calls the named native (declared with no arguments) before
// the loop begins. Tests use it as an execution gate to align a
// migration with a known stack shape.
func HotClassWithMarker(native string) *bytecode.Program {
	return hotClassProgram(native)
}

func hotClassProgram(marker string) *bytecode.Program {
	pb := asm.NewProgram()
	if marker != "" {
		pb.Native(marker, 0, false)
	}

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

	cr := hot.StaticMethod("crunch", true, "seed", "iters")
	if marker != "" {
		cr.Line().CallNat(marker, 0)
	}
	cr.Line().Int(0).Store("sum")
	cr.Line().Int(0).Store("i")
	cr.Label("loop")
	cr.Line().Load("i").Load("iters").Ge().Jnz("done")
	cr.Line().Load("sum").Load("seed").Add().GetS("Hot", "bias").Add().Store("sum")
	cr.Line().Load("i").Int(1).Add().Store("i")
	cr.Line().Jmp("loop")
	cr.Label("done")
	cr.Line().Load("sum").RetV()

	return pb.MustBuild()
}

// HotClassBias is the value SeedHotClass stores in Hot.bias.
const HotClassBias = int64(9)

// SeedHotClass initializes Hot's statics on the node that will start
// jobs; bias is declared first, so it is static slot 0.
func SeedHotClass(v *vm.VM, prog *bytecode.Program) {
	cid := prog.ClassByName("Hot")
	v.Statics[cid][0] = value.Int(HotClassBias)
}

// HotClassExpected mirrors Hot.crunch in Go.
func HotClassExpected(seed, iters int64) int64 {
	return iters * (seed + HotClassBias)
}
