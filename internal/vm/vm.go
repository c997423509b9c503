// Package vm implements the SVM: the stack-based virtual machine substrate
// the SOD reproduction runs on. It provides heaps, threads with explicit
// frame stacks, an interpreter with safepoint-based suspension, exception
// dispatch, native methods, per-class load gating (for on-demand code
// shipping) and the execution-profile hooks the baselines use to model
// slower engines (old JIT, virtualization).
//
// The design keeps every piece of execution state — pc, locals, operand
// stack, statics, heap — explicit and inspectable, which is precisely what
// SOD needs and what Go's own runtime hides; see DESIGN.md §2.
package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/value"
)

// Raised describes an in-flight exception a native or the interpreter
// raises. Either Ref names an existing exception object, or ExClass (a
// builtin class name from package bytecode) plus Message describe one to
// allocate.
type Raised struct {
	Ref     value.Ref
	ExClass string
	Message string
}

// InstrHook observes (and may redirect) execution before each instruction.
type InstrHook func(t *Thread, f *Frame, ins bytecode.Instr) *Raised

// spinSink defeats dead-code elimination in Spin; atomic because
// instruction hooks run on every interpreter thread concurrently.
var spinSink atomic.Uint64

// Spin burns n iterations of CPU: the cost an InstrHook charges to model
// a slower engine or device.
func Spin(n int) {
	s := spinSink.Load()
	for i := 0; i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
	}
	spinSink.Store(s)
}

// NativeImpl is the Go implementation of a declared native function.
// Natives execute inline in the calling frame (no SVM frame is pushed), so
// a thread suspended at a migration-safe point is never "inside" a native —
// the restriction §III.B.1 of the paper imposes.
type NativeImpl func(t *Thread, args []value.Value) (value.Value, *Raised)

// Profile configures the execution engine: a hook run before every
// instruction, and whether a tool agent is attached.
type Profile struct {
	// InstrHook, when non-nil, runs before every instruction. Throttles
	// and execution-cost models use it to slow the engine down; the toolif
	// layer uses it to implement breakpoints and single-stepping during
	// restoration. A non-nil Raised return is thrown at the current pc
	// (how the restoration protocol injects InvalidStateException at
	// breakpoints, Fig 4b). Threads copy it when they start.
	InstrHook InstrHook
	// AgentLoaded models a JVMTI agent being attached at startup (C1):
	// threads then maintain safepoint bookkeeping for suspension requests.
	// Without an agent, suspension requests are not honored.
	AgentLoaded bool
}

// Counters aggregates per-VM execution statistics.
type Counters struct {
	Instructions uint64
	Calls        uint64
	Allocations  uint64
	Exceptions   uint64
	NPEFaults    uint64 // NullPointerExceptions raised on remote refs
	MaxStack     int    // maximum frame-stack height observed (Table I's h)
}

// VM is one virtual machine instance on one node. A node may run several
// (home VM, worker VMs); they share nothing but the network.
type VM struct {
	Prog    *bytecode.Program
	Heap    *Heap
	NodeID  int
	Profile Profile

	// Statics[classID][fieldIdx]. Allocated lazily per class at load time
	// (initialization is ordered before the class's loaded bit, so
	// concurrent threads never see a nil slice). Element reads and writes
	// are NOT synchronized, mirroring the JVM: a program whose threads
	// share mutable statics has an application-level data race there,
	// exactly as the equivalent Java would. Concurrent jobs on one node
	// must not share mutable statics.
	Statics [][]value.Value

	// StaticsDirty[classID] is set on every static write; the object
	// manager reads and clears it when flushing a completed segment's
	// updates home.
	StaticsDirty []bool

	natives []NativeImpl

	// loaded[classID] gates code availability: a VM may only execute code
	// of loaded classes. LoadHook is invoked on first use of an unloaded
	// class (the JVMTI class-file-load-hook analog used for on-demand code
	// shipping); it must arrange for the class to become available and
	// account the transfer. A nil LoadHook means all classes are pre-loaded.
	//
	// The bits are atomic because classes load from network-handler
	// goroutines (migrated-in state, flushes) while resident threads read
	// them on every New/GetS/Call; loadMu serializes the load path itself
	// so statics are initialized exactly once, before the bit flips.
	loaded   []atomic.Bool
	loadMu   sync.Mutex
	LoadHook func(vm *VM, classID int32) error

	// StaticsHook is invoked after a class is loaded, letting runtime
	// profiles implement eager static allocation (JESSICA2 allocates static
	// arrays at class-load time — §IV.A's FFT discussion).
	StaticsHook func(vm *VM, classID int32)

	builtins map[string]int32 // builtin class name -> id

	internMu sync.Mutex
	interned map[string]value.Ref
	strClass int32

	// CPU models the node's execution capacity: when non-nil, at most
	// Cores threads execute bytecode at once; the rest queue. Set it
	// before starting threads.
	CPU *CPUGate

	// liveInstr counts instructions retired across all threads, flushed
	// from the interpreter at safepoint-poll boundaries so load monitors
	// can read an up-to-date step rate without stopping the world.
	liveInstr atomic.Uint64

	mu       sync.Mutex
	threads  map[int]*Thread
	nextTID  int
	Counters Counters
}

// LiveInstructions returns the instructions retired so far, accurate to
// one safepoint-poll interval per running thread. Load monitors diff
// successive readings for a step rate.
func (v *VM) LiveInstructions() uint64 { return v.liveInstr.Load() }

// NumThreads returns the number of registered (created, not yet finished)
// threads — the node's runnable count for load signals. Parked and
// queued-for-CPU threads count: they are demand on this node.
func (v *VM) NumThreads() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.threads)
}

// New creates a VM for prog on the given node. All classes start loaded
// unless preloaded is false.
func New(prog *bytecode.Program, nodeID int, preloaded bool) *VM {
	v := &VM{
		Prog:         prog,
		Heap:         NewHeap(nodeID),
		NodeID:       nodeID,
		Statics:      make([][]value.Value, len(prog.Classes)),
		StaticsDirty: make([]bool, len(prog.Classes)),
		natives:      make([]NativeImpl, len(prog.Natives)),
		loaded:       make([]atomic.Bool, len(prog.Classes)),
		interned:     make(map[string]value.Ref),
		threads:      make(map[int]*Thread),
		builtins:     make(map[string]int32),
	}
	for _, name := range bytecode.BuiltinClassNames {
		v.builtins[name] = prog.ClassByName(name)
	}
	v.strClass = v.builtins[bytecode.ClassString]
	if preloaded {
		for i := range v.loaded {
			v.initStatics(int32(i))
			v.loaded[i].Store(true)
		}
	} else {
		// Builtins are always resident (they ship with the runtime).
		for _, name := range bytecode.BuiltinClassNames {
			id := prog.ClassByName(name)
			if id >= 0 {
				v.initStatics(id)
				v.loaded[id].Store(true)
			}
		}
	}
	return v
}

func (v *VM) initStatics(classID int32) {
	if v.Statics[classID] == nil {
		c := v.Prog.Classes[classID]
		s := make([]value.Value, len(c.Statics))
		for i, f := range c.Statics {
			switch f.Kind {
			case value.KindInt:
				s[i] = value.Int(0)
			case value.KindFloat:
				s[i] = value.Float(0)
			default:
				s[i] = value.Null()
			}
		}
		v.Statics[classID] = s
	}
}

// BindNative installs the implementation of a declared native. It panics
// on unknown names so mis-wired runtimes fail fast at startup.
func (v *VM) BindNative(name string, impl NativeImpl) {
	id := v.Prog.NativeByName(name)
	if id < 0 {
		panic(fmt.Sprintf("vm: BindNative: unknown native %q", name))
	}
	v.natives[id] = impl
}

// BindNativeIfDeclared installs impl when the program declares name;
// missing declarations are ignored (programs declare only what they use).
func (v *VM) BindNativeIfDeclared(name string, impl NativeImpl) {
	if id := v.Prog.NativeByName(name); id >= 0 {
		v.natives[id] = impl
	}
}

// ClassLoaded reports whether classID is loaded in this VM.
func (v *VM) ClassLoaded(classID int32) bool { return v.loaded[classID].Load() }

// MarkLoaded marks a class available (called by the code-shipping layer
// after the class "bytes" arrive). Statics are initialized before the
// loaded bit is published, so a concurrent thread that observes the bit
// always finds them allocated.
func (v *VM) MarkLoaded(classID int32) {
	v.loadMu.Lock()
	defer v.loadMu.Unlock()
	if v.loaded[classID].Load() {
		return
	}
	v.initStatics(classID)
	if v.StaticsHook != nil {
		v.StaticsHook(v, classID)
	}
	v.loaded[classID].Store(true)
}

// EnsureLoaded forces classID to be loaded, invoking the load hook when
// necessary (the runtime analog of class loading during deserialization).
func (v *VM) EnsureLoaded(classID int32) error {
	if r := v.ensureLoaded(classID); r != nil {
		return fmt.Errorf("vm: %s: %s", r.ExClass, r.Message)
	}
	return nil
}

// ensureLoaded triggers the load hook on first use of a class.
func (v *VM) ensureLoaded(classID int32) *Raised {
	if v.loaded[classID].Load() {
		return nil
	}
	if v.LoadHook == nil {
		v.MarkLoaded(classID)
		return nil
	}
	if err := v.LoadHook(v, classID); err != nil {
		return &Raised{ExClass: bytecode.ExClassNotFound, Message: err.Error()}
	}
	v.MarkLoaded(classID)
	return nil
}

// BuiltinClass returns the class id of a builtin by name.
func (v *VM) BuiltinClass(name string) int32 { return v.builtins[name] }

// Intern returns the interned string object for s.
func (v *VM) Intern(s string) value.Ref {
	v.internMu.Lock()
	defer v.internMu.Unlock()
	if ref, ok := v.interned[s]; ok {
		return ref
	}
	ref, err := v.Heap.AllocBytes(v.strClass, []byte(s))
	if err != nil {
		panic(err) // interning tiny strings under OOM limit: treat as fatal
	}
	v.interned[s] = ref
	return ref
}

// NewString allocates a (non-interned) string object.
func (v *VM) NewString(s string) (value.Ref, *Raised) {
	ref, err := v.Heap.AllocBytes(v.strClass, []byte(s))
	if err != nil {
		return value.NullRef, &Raised{ExClass: bytecode.ExOutOfMemory, Message: "string alloc"}
	}
	return ref, nil
}

// FaultOrNPE builds the exception a native should raise when it cannot
// dereference val: RemoteAccessFault for a remote reference (so the
// injected fault handlers fetch it and retry the statement) or
// NullPointerException otherwise — the same discrimination the
// interpreter applies at bytecode dereferences.
func (v *VM) FaultOrNPE(val value.Value) *Raised {
	if val.Kind == value.KindRef && val.R != value.NullRef && v.Heap.Get(val.R) == nil {
		v.mu.Lock()
		v.Counters.NPEFaults++
		v.mu.Unlock()
		return &Raised{ExClass: bytecode.ExRemoteFault}
	}
	return &Raised{ExClass: bytecode.ExNullPointer}
}

// GoString extracts the Go string from a string/byte-array object; ok is
// false when ref is not a local byte array.
func (v *VM) GoString(ref value.Ref) (string, bool) {
	o := v.Heap.Get(ref)
	if o == nil || !o.IsArray || o.AKind != bytecode.ArrKindByte {
		return "", false
	}
	return string(o.AB), true
}

// AllocException builds an exception object of the given builtin class.
func (v *VM) AllocException(exClass, message string) value.Ref {
	cid, ok := v.builtins[exClass]
	if !ok || cid < 0 {
		panic(fmt.Sprintf("vm: unknown builtin exception class %q", exClass))
	}
	// Exception objects are exempt from the heap limit: an OutOfMemoryError
	// must be allocatable exactly when the heap is full.
	ref := v.Heap.AllocExempt(cid, v.Prog.NumInstanceFields(cid))
	o := v.Heap.MustGet(ref)
	if message != "" && len(o.Fields) > bytecode.ExceptionFieldMsg {
		msgRef := v.Heap.AllocBytesExempt(v.strClass, []byte(message))
		o.Fields[bytecode.ExceptionFieldMsg] = value.RefVal(msgRef)
	}
	return ref
}

// ExceptionMessage extracts the message of an exception object, if any.
func (v *VM) ExceptionMessage(ref value.Ref) string {
	o := v.Heap.Get(ref)
	if o == nil || o.IsArray || len(o.Fields) <= bytecode.ExceptionFieldMsg {
		return ""
	}
	msg := o.Fields[bytecode.ExceptionFieldMsg]
	if msg.Kind != value.KindRef {
		return ""
	}
	s, _ := v.GoString(msg.R)
	return s
}

// NewThread creates a thread whose initial frame invokes the given method
// with args. The thread is registered but not started; call Run (usually
// in its own goroutine).
func (v *VM) NewThread(methodID int32, args ...value.Value) (*Thread, error) {
	m := v.Prog.Methods[methodID]
	if len(args) != m.NArgs {
		return nil, fmt.Errorf("vm: method %s takes %d args, got %d", m.Name, m.NArgs, len(args))
	}
	if r := v.ensureLoaded(classOf(m)); r != nil {
		return nil, fmt.Errorf("vm: loading class for %s: %s", m.Name, r.Message)
	}
	v.mu.Lock()
	v.nextTID++
	t := newThread(v, v.nextTID)
	v.threads[t.ID] = t
	v.mu.Unlock()
	f := newFrame(m)
	copy(f.Locals, args)
	t.Frames = append(t.Frames, f)
	return t, nil
}

// Thread returns a registered thread by id, or nil.
func (v *VM) Thread(id int) *Thread {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.threads[id]
}

func (v *VM) dropThread(id int) {
	v.mu.Lock()
	delete(v.threads, id)
	v.mu.Unlock()
}

func classOf(m *bytecode.Method) int32 {
	if m.ClassID >= 0 {
		return m.ClassID
	}
	return 0 // free functions belong to Object's "module"; always loaded
}

// RunMain is the convenience entry point: create a thread on methodID, run
// it to completion and return its result.
func (v *VM) RunMain(methodID int32, args ...value.Value) (value.Value, error) {
	t, err := v.NewThread(methodID, args...)
	if err != nil {
		return value.Value{}, err
	}
	t.Run()
	return t.Result, t.Err
}
