package experiments

import (
	"fmt"
	"time"

	"repro/internal/preprocess"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// --- Table I: program characteristics ---

// Table1Row mirrors the paper's Table I.
type Table1Row struct {
	App     string
	Descr   string
	N       int64 // scaled problem size
	PaperN  int64
	H       int   // maximum stack height observed
	F       int64 // accumulated local+static field footprint (bytes)
	Result  value.Value
	Elapsed time.Duration
}

// Table1 measures the characteristics of the four kernels by running them
// on an instrumented VM.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, w := range workloads.All() {
		v := vm.New(w.Prog, 1, true)
		workloads.BindCommon(v)
		start := time.Now()
		res, err := v.RunMain(w.Prog.MethodByName(w.Entry), w.Args(w.DefaultN)...)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", w.Name, err)
		}
		// F: statics (following ref statics into their arrays/objects) plus
		// the locals of the deepest stack.
		var f int64
		for cid, vals := range v.Statics {
			if !v.ClassLoaded(int32(cid)) {
				continue
			}
			for _, sv := range vals {
				f += 8
				if sv.Kind == value.KindRef {
					if o := v.Heap.Get(sv.R); o != nil {
						f += o.ByteSize()
					}
				}
			}
		}
		h := v.Counters.MaxStack
		f += int64(h) * 8 * 8 // h frames × ~8 local slots × 8 bytes
		rows = append(rows, Table1Row{
			App: w.Name, Descr: w.Descr,
			N: w.DefaultN, PaperN: w.PaperN,
			H: h, F: f, Result: res, Elapsed: time.Since(start),
		})
	}
	return rows, nil
}

// --- Tables II & III: execution times and migration overhead ---

// Table2Cell is one (system, mig?) measurement.
type Table2Cell struct {
	NoMig time.Duration
	Mig   time.Duration
	// Metrics of the migration performed in the Mig run.
	Metrics MigrationMetrics
}

// Table2Row covers one application across all systems.
type Table2Row struct {
	App   string
	JDK   time.Duration
	Cells map[System]*Table2Cell
	// C0: side effect of code instrumentation (preprocessed vs original,
	// no agent); C1: cost of the attached agent (SODEE no-mig vs JDK).
	C0 float64
	C1 float64
}

// Table2 runs every kernel on every system with and without migration.
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, w := range workloads.All() {
		row := Table2Row{App: w.Name, Cells: make(map[System]*Table2Cell)}

		jdk, err := RunJDKReference(w, w.DefaultN)
		if err != nil {
			return nil, err
		}
		row.JDK = jdk.Elapsed

		// C0: preprocessed code on a bare VM.
		ppProg := progFor(SysSODEE, w)
		v := vm.New(ppProg, 1, true)
		workloads.BindCommon(v)
		t0 := time.Now()
		if _, err := v.RunMain(ppProg.MethodByName(w.Entry), w.Args(w.DefaultN)...); err != nil {
			return nil, err
		}
		c0run := time.Since(t0)
		row.C0 = float64(c0run-jdk.Elapsed) / float64(jdk.Elapsed) * 100

		for _, sys := range AllSystems {
			cell := &Table2Cell{}
			noMig, err := RunKernel(sys, w, w.DefaultN, false)
			if err != nil {
				return nil, fmt.Errorf("table2 %s/%v nomig: %w", w.Name, sys, err)
			}
			cell.NoMig = noMig.Elapsed
			mig, err := RunKernel(sys, w, w.DefaultN, true)
			if err != nil {
				return nil, fmt.Errorf("table2 %s/%v mig: %w", w.Name, sys, err)
			}
			cell.Mig = mig.Elapsed
			cell.Metrics = mig.Metrics
			row.Cells[sys] = cell
		}
		row.C1 = float64(row.Cells[SysSODEE].NoMig-c0run) / float64(jdk.Elapsed) * 100
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3Row is the migration overhead derived from Table II.
type Table3Row struct {
	App      string
	Overhead map[System]time.Duration
	Percent  map[System]float64
}

// Table3 derives migration overheads (mig − no-mig) from Table II rows.
func Table3(t2 []Table2Row) []Table3Row {
	var rows []Table3Row
	for _, r := range t2 {
		row := Table3Row{
			App:      r.App,
			Overhead: make(map[System]time.Duration),
			Percent:  make(map[System]float64),
		}
		for sys, c := range r.Cells {
			ov := c.Mig - c.NoMig
			if ov < 0 {
				ov = 0
			}
			row.Overhead[sys] = ov
			row.Percent[sys] = float64(ov) / float64(c.NoMig) * 100
		}
		rows = append(rows, row)
	}
	return rows
}

// Table4Row is the migration latency breakdown (capture/transfer/restore)
// for the lightweight systems.
type Table4Row struct {
	App   string
	Parts map[System]MigrationMetrics
}

// Table4 extracts latency breakdowns from Table II's migrated runs for
// SOD, G-JavaMPI and JESSICA2 (Xen is excluded, as in the paper: its
// latency is not freeze time).
func Table4(t2 []Table2Row) []Table4Row {
	var rows []Table4Row
	for _, r := range t2 {
		row := Table4Row{App: r.App, Parts: make(map[System]MigrationMetrics)}
		for _, sys := range []System{SysSODEE, SysGJavaMPI, SysJessica2} {
			row.Parts[sys] = r.Cells[sys].Metrics
		}
		rows = append(rows, row)
	}
	return rows
}

// --- Table V: remote-object detection microbenchmark ---

// Table5Row is one access type's cost across the three program variants:
// wall-clock nanoseconds and interpreter instructions per loop iteration
// (one access each). The instruction counts are exact, so they carry the
// paper's claim independent of machine noise.
type Table5Row struct {
	Access        string
	OriginalNs    float64
	FaultingNs    float64
	CheckingNs    float64
	FaultSlowdown float64 // percent
	CheckSlowdown float64 // percent

	OriginalInstr float64
	FaultingInstr float64
	CheckingInstr float64
}

// Table5 measures field/static read/write loop costs on the original,
// fault-handler and status-check variants of the microbenchmark. All
// objects are local — this is the paper's point: status checks penalize
// even fully local execution, object faulting does not.
func Table5(iters int64) ([]Table5Row, error) {
	w := workloads.FieldBench()
	variants := map[string]*vmProg{
		"orig":  newVMProg(w, preprocess.Mode(-1)),
		"fault": newVMProg(w, preprocess.ModeFaulting),
		"check": newVMProg(w, preprocess.ModeStatusCheck),
	}
	type bench struct {
		name  string
		entry string
		objed bool
	}
	benches := []bench{
		{"Field Read", "fieldRead", true},
		{"Field Write", "fieldWrite", true},
		{"Static Read", "staticRead", false},
		{"Static Write", "staticWrite", false},
	}
	var rows []Table5Row
	for _, b := range benches {
		times, instrs := map[string]float64{}, map[string]float64{}
		for name, vp := range variants {
			ns, in, err := vp.measure(b.entry, b.objed, iters)
			if err != nil {
				return nil, fmt.Errorf("table5 %s/%s: %w", b.name, name, err)
			}
			times[name], instrs[name] = ns, in
		}
		rows = append(rows, Table5Row{
			Access:        b.name,
			OriginalNs:    times["orig"],
			FaultingNs:    times["fault"],
			CheckingNs:    times["check"],
			FaultSlowdown: (times["fault"] - times["orig"]) / times["orig"] * 100,
			CheckSlowdown: (times["check"] - times["orig"]) / times["orig"] * 100,
			OriginalInstr: instrs["orig"],
			FaultingInstr: instrs["fault"],
			CheckingInstr: instrs["check"],
		})
	}
	return rows, nil
}

type vmProg struct {
	w    *workloads.Workload
	mode preprocess.Mode
}

func newVMProg(w *workloads.Workload, mode preprocess.Mode) *vmProg {
	return &vmProg{w: w, mode: mode}
}

// measure runs one loop entry three times and returns the best ns per
// iteration and the instructions executed per iteration.
func (vp *vmProg) measure(entry string, withObj bool, iters int64) (ns, instr float64, err error) {
	prog := vp.w.Prog
	if vp.mode != preprocess.Mode(-1) {
		prog = preprocess.MustPreprocess(prog, preprocess.Options{Mode: vp.mode, Restore: false})
	}
	for rep := 0; rep < 3; rep++ {
		v := vm.New(prog, 1, true)
		workloads.BindCommon(v)
		v.BindNativeIfDeclared(preprocess.NatBringObj, func(t *vm.Thread, a []value.Value) (value.Value, *vm.Raised) {
			return a[0], nil // all-local microbench: identity
		})
		args := []value.Value{value.Int(iters)}
		if withObj {
			cid := prog.ClassByName("Bench")
			obj, err := v.Heap.Alloc(cid, prog.NumInstanceFields(cid))
			if err != nil {
				return 0, 0, err
			}
			args = []value.Value{value.RefVal(obj), value.Int(iters)}
		}
		start := time.Now()
		if _, err := v.RunMain(prog.MethodByName(entry), args...); err != nil {
			return 0, 0, err
		}
		if t := float64(time.Since(start).Nanoseconds()) / float64(iters); ns == 0 || t < ns {
			ns = t
		}
		instr = float64(v.LiveInstructions()) / float64(iters)
	}
	return ns, instr, nil
}

// --- Fig 5: code-size comparison ---

// Fig5Sizes reports the serialized size of the Geometry-style method under
// the three treatments (original / status checks / fault handlers).
type Fig5Sizes struct {
	Method   string
	Original int
	Checking int
	Faulting int
}

// Fig5 measures code sizes on the FieldBench program's fieldRead method
// (the closest analog of the paper's displaceX example with one object
// access per statement).
func Fig5() (Fig5Sizes, error) {
	w := workloads.FieldBench()
	const method = "fieldRead"
	orig := w.Prog.Methods[w.Prog.MethodByName(method)].CodeSize()
	_, repC, err := preprocess.Preprocess(w.Prog, preprocess.Options{Mode: preprocess.ModeStatusCheck})
	if err != nil {
		return Fig5Sizes{}, err
	}
	_, repF, err := preprocess.Preprocess(w.Prog, preprocess.Options{Mode: preprocess.ModeFaulting})
	if err != nil {
		return Fig5Sizes{}, err
	}
	return Fig5Sizes{
		Method:   method,
		Original: orig,
		Checking: repC.SizeOf(method),
		Faulting: repF.SizeOf(method),
	}, nil
}
