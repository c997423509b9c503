package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/value"
)

// Frame is one activation record: the unit SOD captures and restores. All
// state is explicit — method, pc, locals, operand stack — mirroring a JVM
// frame as exposed through JVMTI.
type Frame struct {
	Method *bytecode.Method
	PC     int32
	Locals []value.Value
	Stack  []value.Value // operand stack; len(Stack) is the current depth

	// Pinned marks frames that must not migrate (e.g. frames holding open
	// sockets — §IV.D pins the web server's connection-holding frames).
	Pinned bool

	// Instrs counts instructions retired while this frame was on top of
	// the stack — the frame's observed weight. The chain planner reads it
	// (through the parked-thread discipline) as a per-frame cost signal.
	Instrs uint64

	// callPC is the pc of the invoke instruction this frame is currently
	// executing a call from. It is valid for every frame except the top
	// one; exception-range matching and state capture use it, because PC
	// has already advanced past the invoke.
	callPC int32
}

func newFrame(m *bytecode.Method) *Frame {
	return &Frame{
		Method: m,
		Locals: make([]value.Value, m.NLocals),
		Stack:  make([]value.Value, 0, m.MaxStack),
		Pinned: m.Pragmas != nil && m.Pragmas["pin"],
	}
}

// push/pop are tiny and used only by the interpreter and toolif.
func (f *Frame) push(v value.Value) { f.Stack = append(f.Stack, v) }
func (f *Frame) pop() value.Value {
	v := f.Stack[len(f.Stack)-1]
	f.Stack = f.Stack[:len(f.Stack)-1]
	return v
}

// Push appends to the operand stack (exported for toolif's forced-return
// value delivery).
func (f *Frame) Push(v value.Value) { f.push(v) }

// ThreadState enumerates the lifecycle of an SVM thread.
type ThreadState int32

const (
	// ThreadNew: created, not yet running.
	ThreadNew ThreadState = iota
	// ThreadRunning: executing bytecode.
	ThreadRunning
	// ThreadParked: suspended at a migration-safe point, frames stable and
	// inspectable by the migration manager.
	ThreadParked
	// ThreadDone: finished (Result/Err populated).
	ThreadDone
)

// suspendRequest asks a running thread to park at its next MSP.
type suspendRequest struct {
	ack chan struct{} // closed when the thread parks
}

// Thread is an SVM thread of control. Exactly one goroutine executes Run;
// other goroutines interact only through RequestSuspend/Resume/Kill and,
// while the thread is parked, through direct frame inspection (the toolif
// layer enforces that discipline).
type Thread struct {
	ID int
	VM *VM

	Frames []*Frame

	// Result and Err are valid once State() == ThreadDone.
	Result value.Value
	Err    error

	state atomic.Int32

	mu      sync.Mutex
	pending *suspendRequest
	resume  chan resumeAction

	// pollCtr counts down instructions between safepoint checks. parking
	// is set once a request is seen so the interpreter checks MSPs on
	// every subsequent instruction until it parks.
	pollCtr int32
	parking bool

	// FramesFloor: frames below this index are "not mine" — a worker
	// thread restoring a migrated segment keeps the floor above zero so a
	// return from the segment's bottom frame completes the thread instead
	// of popping into nothing. The SOD runtime uses this to detect segment
	// completion.
	FramesFloor int

	// Bookkeeping for instrumentation-free loops.
	instrHook InstrHook
	agent     bool

	// UserData lets runtime layers (objman, sodee) attach per-thread
	// context reachable from natives.
	UserData any

	// framePool recycles Frame allocations between calls; Fib-style
	// workloads make millions of calls and the pool keeps allocation out
	// of the dispatch loop.
	framePool []*Frame
}

// acquireFrame returns a frame for m, reusing pooled storage when large
// enough.
func (t *Thread) acquireFrame(m *bytecode.Method) *Frame {
	for i := len(t.framePool) - 1; i >= 0; i-- {
		f := t.framePool[i]
		if cap(f.Locals) >= m.NLocals && cap(f.Stack) >= m.MaxStack {
			t.framePool = append(t.framePool[:i], t.framePool[i+1:]...)
			f.Method = m
			f.PC = 0
			f.callPC = 0
			f.Instrs = 0
			f.Pinned = m.Pragmas != nil && m.Pragmas["pin"]
			f.Locals = f.Locals[:m.NLocals]
			zero := value.Value{}
			for j := range f.Locals {
				f.Locals[j] = zero
			}
			f.Stack = f.Stack[:0]
			return f
		}
	}
	return newFrame(m)
}

// releaseFrame returns a frame to the pool (bounded to avoid hoarding).
func (t *Thread) releaseFrame(f *Frame) {
	if len(t.framePool) < 32 {
		t.framePool = append(t.framePool, f)
	}
}

// AppendRestoredFrame pushes a fully specified frame onto the thread —
// the in-VM restoration path (JESSICA2-style direct frame rebuilding and
// the device profile's Java-level restore). locals shorter than the
// method's slot count are padded with zero values (temp slots).
func (t *Thread) AppendRestoredFrame(m *bytecode.Method, locals []value.Value, pc, callPC int32, pinned bool) {
	f := t.acquireFrame(m)
	copy(f.Locals, locals)
	f.PC = pc
	f.callPC = callPC
	f.Pinned = pinned
	t.Frames = append(t.Frames, f)
}

type resumeAction int

const (
	actionResume resumeAction = iota
	actionKill
)

const pollInterval = 256

func newThread(v *VM, id int) *Thread {
	t := &Thread{
		ID:        id,
		VM:        v,
		resume:    make(chan resumeAction, 1),
		pollCtr:   pollInterval,
		instrHook: v.Profile.InstrHook,
		agent:     v.Profile.AgentLoaded,
	}
	t.state.Store(int32(ThreadNew))
	return t
}

// State returns the thread's lifecycle state.
func (t *Thread) State() ThreadState { return ThreadState(t.state.Load()) }

// Top returns the active frame, or nil when the stack is empty.
func (t *Thread) Top() *Frame {
	if len(t.Frames) == 0 {
		return nil
	}
	return t.Frames[len(t.Frames)-1]
}

// Depth returns the number of frames on the stack.
func (t *Thread) Depth() int { return len(t.Frames) }

// SetInstrHook replaces the per-instruction hook (used by toolif to turn
// breakpoint handling on and off around restoration — the paper's
// "disable all debugging functions before and after a migration event").
func (t *Thread) SetInstrHook(h InstrHook) {
	t.instrHook = h
}

// RequestSuspend asks the thread to park at its next migration-safe point.
// It returns a channel closed when the thread has parked. Calling it on a
// parked thread returns an already-closed channel; on a done thread it
// returns nil. It fails when no agent is loaded (matching the paper: state
// capture requires the JVMTI agent).
func (t *Thread) RequestSuspend() (<-chan struct{}, error) {
	if !t.agent {
		return nil, fmt.Errorf("vm: thread %d: no agent loaded; suspension unsupported", t.ID)
	}
	// The state is read under t.mu, which Run, park and unpark also hold
	// for their Done, Parked and Running transitions: a request that misses
	// the Done or Parked transition is registered before it, and so acked
	// by it; a request after unpark waits for the next park.
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.State() {
	case ThreadDone:
		return nil, fmt.Errorf("vm: thread %d already done", t.ID)
	case ThreadParked:
		ch := make(chan struct{})
		close(ch)
		return ch, nil
	}
	if t.pending == nil {
		t.pending = &suspendRequest{ack: make(chan struct{})}
	}
	return t.pending.ack, nil
}

// Resume unparks a parked thread.
func (t *Thread) Resume() error { return t.unpark(actionResume) }

// Kill terminates a parked thread without running further bytecode (used
// when the home node discards a fully migrated thread, Fig 1b).
func (t *Thread) Kill() error { return t.unpark(actionKill) }

// unpark hands a parked thread its next action. The Parked→Running
// transition happens here, under t.mu and before the thread can execute
// again: a RequestSuspend that follows sees Running and waits for the
// next park, instead of acking a thread that is already running on.
func (t *Thread) unpark(act resumeAction) error {
	t.mu.Lock()
	if t.State() != ThreadParked {
		t.mu.Unlock()
		return fmt.Errorf("vm: thread %d not parked", t.ID)
	}
	t.state.Store(int32(ThreadRunning))
	t.mu.Unlock()
	t.resume <- act // only the unpark that left Parked sends; the buffer is empty
	return nil
}

// park blocks the interpreter at a safepoint until resumed or killed.
// Returns false when the thread must terminate. The modeled core is
// released for the duration: a suspended thread consumes no CPU.
func (t *Thread) park() bool {
	t.mu.Lock()
	req := t.pending
	t.pending = nil
	t.parking = false
	t.state.Store(int32(ThreadParked))
	t.mu.Unlock()
	if req != nil {
		close(req.ack)
	}
	if cpu := t.VM.CPU; cpu != nil {
		cpu.Release()
		defer cpu.Acquire()
	}
	return <-t.resume == actionResume
}

// safepointPoll is the slow path of the interpreter's countdown check.
func (t *Thread) safepointPoll() {
	if !t.agent {
		t.pollCtr = pollInterval * 16
		return
	}
	t.mu.Lock()
	hasReq := t.pending != nil
	t.mu.Unlock()
	if hasReq {
		t.parking = true
		t.pollCtr = 1 // check MSP membership every instruction from now on
	} else {
		t.pollCtr = pollInterval
	}
}

// UncaughtError is reported when an exception propagates off the bottom of
// the stack (or below FramesFloor).
type UncaughtError struct {
	ClassName string
	Message   string
	Ref       value.Ref
}

func (e *UncaughtError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("vm: uncaught %s: %s", e.ClassName, e.Message)
	}
	return fmt.Sprintf("vm: uncaught %s", e.ClassName)
}
