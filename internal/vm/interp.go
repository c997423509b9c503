package vm

import (
	"math"

	"repro/internal/bytecode"
	"repro/internal/value"
)

// Run executes the thread until completion (or kill). It must be called by
// exactly one goroutine. On return, Result/Err are populated and the
// thread is unregistered from the VM.
func (t *Thread) Run() {
	if cpu := t.VM.CPU; cpu != nil {
		cpu.Acquire()
		defer cpu.Release()
	}
	t.state.Store(int32(ThreadRunning))
	t.exec()
	// A suspend request racing with completion must not leave the
	// requester blocked: the Done transition and the pending check share
	// t.mu with RequestSuspend, so a request either sees Done or is acked
	// here.
	t.mu.Lock()
	t.state.Store(int32(ThreadDone))
	if t.pending != nil {
		close(t.pending.ack)
		t.pending = nil
	}
	t.mu.Unlock()
	t.VM.dropThread(t.ID)
}

// CallPC exposes the invoke-site pc of a suspended frame. For every frame
// except the top one, the frame is "inside" the call instruction at
// callPC; exception-range matching and state capture use it.
func (f *Frame) CallPC() int32 { return f.callPC }

// exec is the interpreter loop.
func (t *Thread) exec() {
	v := t.VM
	h := v.Heap
	var localInstr, localCalls, localAllocs uint64
	var flushedInstr uint64 // portion of localInstr already in v.liveInstr
	maxDepth := len(t.Frames)
	defer func() {
		v.liveInstr.Add(localInstr - flushedInstr)
		v.mu.Lock()
		v.Counters.Instructions += localInstr
		v.Counters.Calls += localCalls
		v.Counters.Allocations += localAllocs
		if maxDepth > v.Counters.MaxStack {
			v.Counters.MaxStack = maxDepth
		}
		v.mu.Unlock()
	}()

	if len(t.Frames) <= t.FramesFloor {
		t.Err = nil
		return
	}
	f := t.Frames[len(t.Frames)-1]
	code := f.Method.Code

	// raiseAndContinue dispatches an exception; returns false when the
	// thread must stop (uncaught below the floor).
	raiseAndContinue := func(r *Raised) bool {
		ok := t.dispatchException(r)
		if !ok {
			return false
		}
		f = t.Frames[len(t.Frames)-1]
		code = f.Method.Code
		return true
	}

	for {
		// Safepoint countdown: the only per-instruction bookkeeping beyond
		// the dispatch itself. When a suspension request is pending the
		// counter stays at 1 so the MSP check below runs every instruction.
		t.pollCtr--
		if t.pollCtr <= 0 {
			// Publish retired instructions for load monitors and yield the
			// modeled core so queued sibling threads make progress.
			v.liveInstr.Add(localInstr - flushedInstr)
			flushedInstr = localInstr
			if v.CPU != nil {
				v.CPU.Yield()
			}
			t.safepointPoll()
			if t.parking && f.Method.IsMSP(f.PC) && len(f.Stack) == 0 {
				if !t.park() {
					t.Err = &UncaughtError{ClassName: "Killed"}
					return
				}
				// The migration manager may have rearranged the stack.
				if len(t.Frames) <= t.FramesFloor {
					return
				}
				f = t.Frames[len(t.Frames)-1]
				code = f.Method.Code
				continue
			}
			if t.parking {
				t.pollCtr = 1
			}
		}

		ins := code[f.PC]

		if t.instrHook != nil {
			if r := t.instrHook(t, f, ins); r != nil {
				if !raiseAndContinue(r) {
					return
				}
				continue
			}
			// The hook may have rewritten the pc or frames (breakpoints,
			// forced returns); refetch defensively.
			if len(t.Frames) <= t.FramesFloor {
				return
			}
			if tf := t.Frames[len(t.Frames)-1]; tf != f {
				f = tf
				code = f.Method.Code
				continue
			}
			ins = code[f.PC]
		}

		localInstr++
		f.Instrs++

		switch ins.Op {
		case bytecode.OpNop:
			f.PC++

		case bytecode.OpConst:
			f.push(f.Method.Consts[ins.A])
			f.PC++
		case bytecode.OpIConst:
			f.push(value.Int(int64(ins.A)))
			f.PC++
		case bytecode.OpNull:
			f.push(value.Null())
			f.PC++
		case bytecode.OpSConst:
			f.push(value.RefVal(v.Intern(f.Method.Strings[ins.A])))
			f.PC++
		case bytecode.OpLoad:
			f.push(f.Locals[ins.A])
			f.PC++
		case bytecode.OpStore:
			f.Locals[ins.A] = f.pop()
			f.PC++

		case bytecode.OpPop:
			f.pop()
			f.PC++
		case bytecode.OpDup:
			f.push(f.Stack[len(f.Stack)-1])
			f.PC++
		case bytecode.OpSwap:
			n := len(f.Stack)
			f.Stack[n-1], f.Stack[n-2] = f.Stack[n-2], f.Stack[n-1]
			f.PC++

		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod:
			b := f.pop()
			a := f.pop()
			res, r := arith(ins.Op, a, b)
			if r != nil {
				if !raiseAndContinue(r) {
					return
				}
				continue
			}
			f.push(res)
			f.PC++
		case bytecode.OpNeg:
			a := f.pop()
			if a.Kind == value.KindFloat {
				f.push(value.Float(-a.F))
			} else {
				f.push(value.Int(-a.I))
			}
			f.PC++

		case bytecode.OpAnd:
			b, a := f.pop(), f.pop()
			f.push(value.Int(a.AsInt() & b.AsInt()))
			f.PC++
		case bytecode.OpOr:
			b, a := f.pop(), f.pop()
			f.push(value.Int(a.AsInt() | b.AsInt()))
			f.PC++
		case bytecode.OpXor:
			b, a := f.pop(), f.pop()
			f.push(value.Int(a.AsInt() ^ b.AsInt()))
			f.PC++
		case bytecode.OpShl:
			b, a := f.pop(), f.pop()
			f.push(value.Int(a.AsInt() << (uint64(b.AsInt()) & 63)))
			f.PC++
		case bytecode.OpShr:
			b, a := f.pop(), f.pop()
			f.push(value.Int(a.AsInt() >> (uint64(b.AsInt()) & 63)))
			f.PC++
		case bytecode.OpNot:
			a := f.pop()
			f.push(value.Bool(!a.IsTruthy()))
			f.PC++

		case bytecode.OpI2F:
			a := f.pop()
			f.push(value.Float(float64(a.AsInt())))
			f.PC++
		case bytecode.OpF2I:
			a := f.pop()
			f.push(value.Int(a.AsInt()))
			f.PC++

		case bytecode.OpEq, bytecode.OpNe, bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe:
			b := f.pop()
			a := f.pop()
			f.push(value.Bool(compare(ins.Op, a, b)))
			f.PC++

		case bytecode.OpJmp:
			f.PC = ins.A
		case bytecode.OpJz:
			if !f.pop().IsTruthy() {
				f.PC = ins.A
			} else {
				f.PC++
			}
		case bytecode.OpJnz:
			if f.pop().IsTruthy() {
				f.PC = ins.A
			} else {
				f.PC++
			}
		case bytecode.OpTSwitch:
			key := f.pop().AsInt()
			f.PC = f.Method.Switches[ins.A].Lookup(int32(key))

		case bytecode.OpNew:
			if !v.loaded[ins.A].Load() {
				if r := v.ensureLoaded(ins.A); r != nil {
					if !raiseAndContinue(r) {
						return
					}
					continue
				}
			}
			ref, err := h.Alloc(ins.A, v.Prog.NumInstanceFields(ins.A))
			if err != nil {
				if !raiseAndContinue(&Raised{ExClass: bytecode.ExOutOfMemory, Message: "new"}) {
					return
				}
				continue
			}
			localAllocs++
			f.push(value.RefVal(ref))
			f.PC++

		case bytecode.OpGetF:
			ref := f.pop()
			o := h.Get(ref.R)
			if o == nil || ref.Kind != value.KindRef {
				if !raiseAndContinue(t.npe(ref)) {
					return
				}
				continue
			}
			f.push(o.Fields[ins.A])
			f.PC++
		case bytecode.OpPutF:
			val := f.pop()
			ref := f.pop()
			o := h.Get(ref.R)
			if o == nil || ref.Kind != value.KindRef {
				if !raiseAndContinue(t.npe(ref)) {
					return
				}
				continue
			}
			o.Fields[ins.A] = val
			if o.Home != value.NullRef {
				o.Dirty = true
			}
			if h.WriteHook != nil {
				h.WriteHook(ref.R, o)
			}
			f.PC++

		case bytecode.OpGetS:
			if !v.loaded[ins.A].Load() {
				if r := v.ensureLoaded(ins.A); r != nil {
					if !raiseAndContinue(r) {
						return
					}
					continue
				}
			}
			f.push(v.Statics[ins.A][ins.B])
			f.PC++
		case bytecode.OpPutS:
			if !v.loaded[ins.A].Load() {
				if r := v.ensureLoaded(ins.A); r != nil {
					if !raiseAndContinue(r) {
						return
					}
					continue
				}
			}
			v.Statics[ins.A][ins.B] = f.pop()
			v.StaticsDirty[ins.A] = true
			f.PC++

		case bytecode.OpGetStatus:
			val := f.pop()
			switch {
			case val.Kind != value.KindRef || val.R == value.NullRef:
				// Primitives and nulls are always "valid" under the
				// status-check protocol; only object state is managed.
				f.push(value.Int(1))
			default:
				if o := h.Get(val.R); o != nil {
					f.push(value.Int(int64(o.Status)))
				} else {
					// Remote: invalid — the injected check calls bringObj.
					f.push(value.Int(0))
				}
			}
			f.PC++

		case bytecode.OpInstOf:
			ref := f.pop()
			o := h.Get(ref.R)
			if o == nil && ref.Kind == value.KindRef && ref.R != value.NullRef {
				// Remote reference: the class is not known locally, so the
				// test must fault the object in first.
				if !raiseAndContinue(t.npe(ref)) {
					return
				}
				continue
			}
			f.push(value.Bool(o != nil && v.Prog.InstanceOf(o.Class, ins.A)))
			f.PC++
		case bytecode.OpCheckCast:
			ref := f.Stack[len(f.Stack)-1]
			if ref.Kind == value.KindRef && ref.R != value.NullRef {
				o := h.Get(ref.R)
				if o == nil {
					// Remote reference: class unknown locally; raise the
					// fault so the object comes in, then the retried cast
					// checks the real class.
					if !raiseAndContinue(t.npe(ref)) {
						return
					}
					continue
				}
				if !v.Prog.InstanceOf(o.Class, ins.A) {
					if !raiseAndContinue(&Raised{ExClass: bytecode.ExClassCast, Message: v.Prog.Classes[ins.A].Name}) {
						return
					}
					continue
				}
			}
			f.PC++

		case bytecode.OpNewArr:
			length := f.pop().AsInt()
			if length < 0 {
				if !raiseAndContinue(&Raised{ExClass: bytecode.ExIndexOutOfBounds, Message: "negative array size"}) {
					return
				}
				continue
			}
			ref, err := h.AllocArray(v.builtins[bytecode.ClassObject], ins.A, int(length))
			if err != nil {
				if !raiseAndContinue(&Raised{ExClass: bytecode.ExOutOfMemory, Message: "newarr"}) {
					return
				}
				continue
			}
			localAllocs++
			f.push(value.RefVal(ref))
			f.PC++

		case bytecode.OpALoad:
			idx := f.pop().AsInt()
			ref := f.pop()
			o := h.Get(ref.R)
			if o == nil || ref.Kind != value.KindRef {
				if !raiseAndContinue(t.npe(ref)) {
					return
				}
				continue
			}
			res, r := arrayLoad(o, idx)
			if r != nil {
				if !raiseAndContinue(r) {
					return
				}
				continue
			}
			f.push(res)
			f.PC++
		case bytecode.OpAStore:
			val := f.pop()
			idx := f.pop().AsInt()
			ref := f.pop()
			o := h.Get(ref.R)
			if o == nil || ref.Kind != value.KindRef {
				if !raiseAndContinue(t.npe(ref)) {
					return
				}
				continue
			}
			if r := arrayStore(o, idx, val); r != nil {
				if !raiseAndContinue(r) {
					return
				}
				continue
			}
			if o.Home != value.NullRef {
				o.Dirty = true
			}
			if h.WriteHook != nil {
				h.WriteHook(ref.R, o)
			}
			f.PC++
		case bytecode.OpArrLen:
			ref := f.pop()
			o := h.Get(ref.R)
			if o == nil || ref.Kind != value.KindRef {
				if !raiseAndContinue(t.npe(ref)) {
					return
				}
				continue
			}
			f.push(value.Int(int64(o.Len())))
			f.PC++

		case bytecode.OpCall, bytecode.OpCallV:
			var m *bytecode.Method
			if ins.Op == bytecode.OpCall {
				m = v.Prog.Methods[ins.A]
			} else {
				recv := f.Stack[len(f.Stack)-int(ins.B)]
				o := h.Get(recv.R)
				if o == nil || recv.Kind != value.KindRef {
					if !raiseAndContinue(t.npe(recv)) {
						return
					}
					continue
				}
				mid := v.Prog.ResolveVirtual(o.Class, ins.A)
				if mid < 0 {
					if !raiseAndContinue(&Raised{ExClass: bytecode.ExIllegalState,
						Message: "unresolved virtual " + v.Prog.VNames[ins.A]}) {
						return
					}
					continue
				}
				m = v.Prog.Methods[mid]
			}
			if m.ClassID >= 0 && !v.loaded[m.ClassID].Load() {
				if r := v.ensureLoaded(m.ClassID); r != nil {
					if !raiseAndContinue(r) {
						return
					}
					continue
				}
			}
			localCalls++
			nf := t.acquireFrame(m)
			n := int(ins.B)
			base := len(f.Stack) - n
			copy(nf.Locals, f.Stack[base:])
			f.Stack = f.Stack[:base]
			f.callPC = f.PC
			f.PC++ // caller resumes after the invoke
			t.Frames = append(t.Frames, nf)
			if len(t.Frames) > maxDepth {
				maxDepth = len(t.Frames)
			}
			f = nf
			code = f.Method.Code

		case bytecode.OpCallNat:
			impl := v.natives[ins.A]
			if impl == nil {
				if !raiseAndContinue(&Raised{ExClass: bytecode.ExIllegalState,
					Message: "native not bound: " + v.Prog.Natives[ins.A].Name}) {
					return
				}
				continue
			}
			n := int(ins.B)
			base := len(f.Stack) - n
			args := f.Stack[base:]
			res, r := impl(t, args)
			f.Stack = f.Stack[:base]
			if r != nil {
				if !raiseAndContinue(r) {
					return
				}
				continue
			}
			if v.Prog.Natives[ins.A].ReturnsValue {
				f.push(res)
			}
			f.PC++
			// Natives may block for long stretches (gates, I/O); re-poll
			// promptly so suspension requests that arrived meanwhile are
			// honored at the next MSP even in short-lived methods.
			t.pollCtr = 1
			// A native may have mutated the frame stack (restoration
			// drivers do); refetch.
			if len(t.Frames) <= t.FramesFloor {
				return
			}
			if tf := t.Frames[len(t.Frames)-1]; tf != f {
				f = tf
				code = f.Method.Code
			}

		case bytecode.OpRet, bytecode.OpRetV:
			var rv value.Value
			hasVal := ins.Op == bytecode.OpRetV
			if hasVal {
				rv = f.pop()
			}
			t.releaseFrame(f)
			t.Frames = t.Frames[:len(t.Frames)-1]
			if len(t.Frames) <= t.FramesFloor {
				if hasVal {
					t.Result = rv
				}
				t.Err = nil
				return
			}
			f = t.Frames[len(t.Frames)-1]
			code = f.Method.Code
			if hasVal {
				f.push(rv)
			}

		case bytecode.OpThrow:
			ref := f.pop()
			var r *Raised
			if ref.Kind != value.KindRef || h.Get(ref.R) == nil {
				r = t.npe(ref)
			} else {
				r = &Raised{Ref: ref.R}
			}
			if !raiseAndContinue(r) {
				return
			}

		default:
			if !raiseAndContinue(&Raised{ExClass: bytecode.ExIllegalState, Message: "bad opcode"}) {
				return
			}
		}
	}
}

// npe builds the exception for a failed dereference: a RemoteAccessFault
// when the reference names an object on another node (the object-faulting
// event of §III.C, caught by injected fault handlers), or a genuine
// NullPointerException for null (an application error).
func (t *Thread) npe(ref value.Value) *Raised {
	if ref.Kind == value.KindRef && ref.R != value.NullRef {
		t.VM.mu.Lock()
		t.VM.Counters.NPEFaults++
		t.VM.mu.Unlock()
		return &Raised{ExClass: bytecode.ExRemoteFault}
	}
	return &Raised{ExClass: bytecode.ExNullPointer}
}

func arith(op bytecode.Op, a, b value.Value) (value.Value, *Raised) {
	if a.Kind == value.KindFloat || b.Kind == value.KindFloat {
		x, y := a.AsFloat(), b.AsFloat()
		switch op {
		case bytecode.OpAdd:
			return value.Float(x + y), nil
		case bytecode.OpSub:
			return value.Float(x - y), nil
		case bytecode.OpMul:
			return value.Float(x * y), nil
		case bytecode.OpDiv:
			return value.Float(x / y), nil
		case bytecode.OpMod:
			return value.Float(math.Mod(x, y)), nil
		}
	}
	x, y := a.I, b.I
	switch op {
	case bytecode.OpAdd:
		return value.Int(x + y), nil
	case bytecode.OpSub:
		return value.Int(x - y), nil
	case bytecode.OpMul:
		return value.Int(x * y), nil
	case bytecode.OpDiv:
		if y == 0 {
			return value.Value{}, &Raised{ExClass: bytecode.ExArithmetic, Message: "division by zero"}
		}
		return value.Int(x / y), nil
	case bytecode.OpMod:
		if y == 0 {
			return value.Value{}, &Raised{ExClass: bytecode.ExArithmetic, Message: "modulo by zero"}
		}
		return value.Int(x % y), nil
	}
	return value.Value{}, &Raised{ExClass: bytecode.ExIllegalState, Message: "bad arith op"}
}

func compare(op bytecode.Op, a, b value.Value) bool {
	if a.Kind == value.KindRef || b.Kind == value.KindRef {
		eq := a.Kind == b.Kind && a.R == b.R
		if op == bytecode.OpEq {
			return eq
		}
		if op == bytecode.OpNe {
			return !eq
		}
		return false
	}
	if a.Kind == value.KindFloat || b.Kind == value.KindFloat {
		x, y := a.AsFloat(), b.AsFloat()
		switch op {
		case bytecode.OpEq:
			return x == y
		case bytecode.OpNe:
			return x != y
		case bytecode.OpLt:
			return x < y
		case bytecode.OpLe:
			return x <= y
		case bytecode.OpGt:
			return x > y
		case bytecode.OpGe:
			return x >= y
		}
	}
	x, y := a.I, b.I
	switch op {
	case bytecode.OpEq:
		return x == y
	case bytecode.OpNe:
		return x != y
	case bytecode.OpLt:
		return x < y
	case bytecode.OpLe:
		return x <= y
	case bytecode.OpGt:
		return x > y
	case bytecode.OpGe:
		return x >= y
	}
	return false
}

func arrayLoad(o *Object, idx int64) (value.Value, *Raised) {
	if idx < 0 || idx >= int64(o.Len()) {
		return value.Value{}, &Raised{ExClass: bytecode.ExIndexOutOfBounds}
	}
	switch o.AKind {
	case bytecode.ArrKindInt:
		return value.Int(o.AI[idx]), nil
	case bytecode.ArrKindFloat:
		return value.Float(o.AF[idx]), nil
	case bytecode.ArrKindByte:
		return value.Int(int64(o.AB[idx])), nil
	case bytecode.ArrKindRef:
		return value.RefVal(o.AR[idx]), nil
	}
	return value.Value{}, &Raised{ExClass: bytecode.ExIllegalState, Message: "not an array"}
}

func arrayStore(o *Object, idx int64, val value.Value) *Raised {
	if idx < 0 || idx >= int64(o.Len()) {
		return &Raised{ExClass: bytecode.ExIndexOutOfBounds}
	}
	switch o.AKind {
	case bytecode.ArrKindInt:
		o.AI[idx] = val.AsInt()
	case bytecode.ArrKindFloat:
		o.AF[idx] = val.AsFloat()
	case bytecode.ArrKindByte:
		o.AB[idx] = byte(val.AsInt())
	case bytecode.ArrKindRef:
		o.AR[idx] = val.R
	default:
		return &Raised{ExClass: bytecode.ExIllegalState, Message: "not an array"}
	}
	return nil
}

// dispatchException materializes r (allocating the exception object when
// needed) and unwinds frames looking for a matching handler. Returns false
// when the exception escapes the thread's floor, setting t.Err.
func (t *Thread) dispatchException(r *Raised) bool {
	v := t.VM
	v.mu.Lock()
	v.Counters.Exceptions++
	v.mu.Unlock()

	ref := r.Ref
	if ref == value.NullRef {
		ref = v.AllocException(r.ExClass, r.Message)
	}
	obj := v.Heap.MustGet(ref)

	// The raising (top) frame is matched at its current PC; as unwinding
	// pops frames, each newly exposed frame is matched at the pc of its
	// pending invoke (callPC), because its PC has already advanced past
	// the call instruction.
	for len(t.Frames) > t.FramesFloor {
		f := t.Frames[len(t.Frames)-1]
		if handlerPC := matchHandler(v, f, f.PC, obj.Class); handlerPC >= 0 {
			f.Stack = f.Stack[:0]
			f.push(value.RefVal(ref))
			f.PC = handlerPC
			return true
		}
		t.releaseFrame(f)
		t.Frames = t.Frames[:len(t.Frames)-1]
		if len(t.Frames) > t.FramesFloor {
			below := t.Frames[len(t.Frames)-1]
			below.PC = below.callPC // match (and, if caught, resume) at the invoke's statement
		}
	}
	name := r.ExClass
	if name == "" {
		name = v.Prog.Classes[obj.Class].Name
	}
	msg := r.Message
	if msg == "" {
		msg = v.ExceptionMessage(ref)
	}
	t.Err = &UncaughtError{ClassName: name, Message: msg, Ref: ref}
	return false
}

func matchHandler(v *VM, f *Frame, pc int32, excClass int32) int32 {
	for _, ex := range f.Method.Except {
		if pc < ex.From || pc >= ex.To {
			continue
		}
		if ex.ClassID < 0 || v.Prog.InstanceOf(excClass, ex.ClassID) {
			return ex.Handler
		}
	}
	return -1
}
