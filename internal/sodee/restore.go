package sodee

import (
	"fmt"
	"time"

	"repro/internal/bytecode"
	"repro/internal/serial"
	"repro/internal/value"
	"repro/internal/vm"
)

// threadCtx is attached to worker threads via vm.Thread.UserData; the
// preprocessor-injected natives reach it during restoration.
type threadCtx struct {
	restore *restoreCtx
	// homeNode is the job's home (where modified statics belong); -1 when
	// the thread never migrated.
	homeNode int
}

// restoreCtx drives one breakpoint-based restoration (Fig 4b).
type restoreCtx struct {
	frames []serial.CapturedFrame
	cur    int // frame whose locals the rst_* natives currently serve
	next   int // next frame expecting a breakpoint
	node   *Node
	thread *vm.Thread
	done   chan struct{} // closed when the last frame has resumed
	// restoredAt is stamped just before done closes: the moment execution
	// resumed for real. The waiter may be scheduled much later when the
	// restored thread immediately saturates the CPU, so restore-time
	// measurements must use this, not the waiter's wake-up time.
	restoredAt time.Time
	failed     error
}

// restoreTimeout bounds how long a destination waits for a breakpoint-
// driven restoration to resume its last frame.
const restoreTimeout = 10 * time.Second

// Wait blocks until the restored thread resumes its last frame, and
// returns the restore time counted from start. The stamp taken when
// execution actually resumed ends the count, not this waiter's wake-up:
// the waiter may be scheduled long after if the restored thread
// saturates the CPU.
func (rc *restoreCtx) Wait(start time.Time) (time.Duration, error) {
	timeout := time.NewTimer(restoreTimeout)
	defer timeout.Stop()
	select {
	case <-rc.done:
		return rc.restoredAt.Sub(start), nil
	case <-timeout.C:
		return 0, fmt.Errorf("sodee: restoration timed out")
	}
}

// bindRestoreNatives wires the Fig 4 CapturedState.read<Type> analogs.
func bindRestoreNatives(v *vm.VM) {
	v.BindNativeIfDeclared("sod_rst_local", func(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
		ctx, ok := t.UserData.(*threadCtx)
		if !ok || ctx.restore == nil {
			return value.Value{}, &vm.Raised{ExClass: bytecode.ExIllegalState, Message: "rst_local outside restoration"}
		}
		rc := ctx.restore
		slot := int(args[0].AsInt())
		locals := rc.frames[rc.cur].Locals
		if slot < 0 {
			return value.Value{}, &vm.Raised{ExClass: bytecode.ExIllegalState, Message: "bad slot"}
		}
		if slot >= len(locals) {
			// The captured frame may predate temp slots appended by a later
			// preprocessing run; missing slots restore as zero/null.
			return value.Null(), nil
		}
		return locals[slot], nil
	})
	v.BindNativeIfDeclared("sod_rst_pc", func(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
		ctx, ok := t.UserData.(*threadCtx)
		if !ok || ctx.restore == nil {
			return value.Value{}, &vm.Raised{ExClass: bytecode.ExIllegalState, Message: "rst_pc outside restoration"}
		}
		rc := ctx.restore
		cf := rc.frames[rc.cur]
		t.Top().Pinned = cf.Pinned
		if rc.cur == len(rc.frames)-1 {
			// Last frame restored: "disable all debugging functions after a
			// migration event" and hand execution back at full speed.
			if rc.node != nil && rc.node.Agent != nil {
				rc.node.Agent.ClearAllBreakpoints(t)
			}
			ctx.restore = nil
			rc.restoredAt = time.Now()
			close(rc.done)
		}
		return value.Int(int64(cf.PC)), nil
	})
}

// applyStatics installs captured statics into the destination VM. Ref
// values are home references: remote here, faulted in on first use.
func applyStatics(v *vm.VM, cs *serial.CapturedState) {
	for _, st := range cs.Statics {
		v.MarkLoaded(st.ClassID)
		dst := v.Statics[st.ClassID]
		for i, sv := range st.Values {
			if i < len(dst) {
				dst[i] = sv
			}
		}
	}
}

// RestoreByBreakpoints rebuilds the captured segment with the paper's
// protocol: invoke the bottom method with dummy arguments, arm a
// breakpoint at its entry, and on each breakpoint arm the next frame's
// entry and throw InvalidStateException so the injected restoration
// handler reloads the locals and jumps to the saved pc; the re-executed
// invoke then creates the next frame (Fig 4b steps 1-7).
//
// The returned thread is NOT yet running; the caller starts it, then
// calls Wait on the returned restoration, which returns once the last
// frame resumes real execution (the restore-time measurement point).
func RestoreByBreakpoints(n *Node, cs *serial.CapturedState) (*vm.Thread, *restoreCtx, error) {
	if n.Agent == nil {
		return nil, nil, fmt.Errorf("sodee: node %d has no tool agent", n.ID)
	}
	if len(cs.Frames) == 0 {
		return nil, nil, fmt.Errorf("sodee: empty captured state")
	}
	applyStatics(n.VM, cs)

	bottom := n.Prog.Methods[cs.Frames[0].MethodID]
	args := make([]value.Value, bottom.NArgs)
	for i := range args {
		args[i] = value.Null() // dummies; the restoration handler overwrites
	}
	th, err := n.VM.NewThread(bottom.ID, args...)
	if err != nil {
		return nil, nil, err
	}
	rc := &restoreCtx{frames: cs.Frames, node: n, thread: th, done: make(chan struct{})}
	th.UserData = &threadCtx{restore: rc, homeNode: int(cs.HomeNode)}

	n.Agent.SetCallback(th, func(t *vm.Thread, f *vm.Frame) *vm.Raised {
		rc.cur = rc.next
		rc.next++
		if rc.next < len(rc.frames) {
			n.Agent.SetBreakpoint(th, rc.frames[rc.next].MethodID, 0)
		}
		// cbBreakpoint throws InvalidStateException in the current method;
		// the injected handler catches it and performs the state reload.
		return &vm.Raised{Ref: n.restoreEx, ExClass: bytecode.ExInvalidState}
	})
	n.Agent.SetBreakpoint(th, bottom.ID, 0)
	return th, rc, nil
}

// RestoreDirect rebuilds frames by writing thread structures directly:
// how a node without a tool interface (§IV.D) restores every stack, and
// how any node rebuilds a parked residual. The agentless node pays a
// CPU cost at its Slow throttle instead of tool-interface costs. The
// thread is ready to run; restoration is complete on return.
func RestoreDirect(n *Node, cs *serial.CapturedState) (*vm.Thread, error) {
	if len(cs.Frames) == 0 {
		return nil, fmt.Errorf("sodee: empty captured state")
	}
	applyStatics(n.VM, cs)

	if n.Agent == nil && n.slow > 0 {
		// Java-level restoration on a slow handset: reflection-driven frame
		// rebuilding on a 412 MHz ARM (§IV.D: "carrying out restoration at
		// Java code level with rather low processing power of the device
		// makes the restore time much longer"). Cost scales with state size.
		work := 0
		for _, f := range cs.Frames {
			work += 4000 + 2500*len(f.Locals)
		}
		vm.Spin(work * n.slow)
	}

	bottom := n.Prog.Methods[cs.Frames[0].MethodID]
	args := make([]value.Value, bottom.NArgs)
	th, err := n.VM.NewThread(bottom.ID, args...)
	if err != nil {
		return nil, err
	}
	th.UserData = &threadCtx{homeNode: int(cs.HomeNode)}
	// Replace the dummy initial frame with the full restored stack.
	th.Frames = th.Frames[:0]
	appendCapturedFrames(th, n.Prog, cs.Frames)
	return th, nil
}

// appendCapturedFrames rebuilds captured frames onto th, bottom-first.
// Every frame resumes at its exact continuation pc: for frames beneath a
// callee that is also being restored, that is one past the pending
// invoke; for a frame whose callee's *result* will be pushed before the
// thread runs (a planted residual), likewise; for a top frame captured
// at an MSP, ResumePC equals the MSP pc.
func appendCapturedFrames(th *vm.Thread, prog *bytecode.Program, frames []serial.CapturedFrame) {
	for _, cf := range frames {
		m := prog.Methods[cf.MethodID]
		callPC := cf.ResumePC - 1
		if callPC < 0 {
			callPC = 0
		}
		th.AppendRestoredFrame(m, cf.Locals, cf.ResumePC, callPC, cf.Pinned)
	}
}
