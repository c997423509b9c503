package sodee

import (
	"fmt"
	"sort"

	"repro/internal/serial"
	"repro/internal/toolif"
	"repro/internal/value"
	"repro/internal/vm"
)

// appendStatics emits the statics of classes in ascending class-id order.
// Determinism matters: two captures of unchanged state must encode to the
// same bytes, or the delta path's content hashes never repeat and every
// migration pays for a full resend (map-iteration order used to randomize
// the statics sequence between captures).
func appendStatics(cs *serial.CapturedState, statics [][]value.Value, classes map[int32]bool) {
	ids := make([]int32, 0, len(classes))
	for cid := range classes {
		ids = append(ids, cid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, cid := range ids {
		if int(cid) >= len(statics) {
			continue
		}
		vals := statics[cid]
		if len(vals) == 0 {
			continue
		}
		cs.Statics = append(cs.Statics, serial.ClassStatics{
			ClassID: cid, Values: append([]value.Value(nil), vals...),
		})
	}
}

// CaptureSegment captures the topmost nFrames of a parked thread through
// the tool interface — the Fig 3 code path, paying the per-call JVMTI
// costs (GetFrameLocation is cheap, GetLocal<type> is ~30× dearer), which
// is exactly why SODEE's capture time exceeds JESSICA2's in Table IV.
//
// Frames are emitted bottom-first. Non-top frames record the start of the
// statement containing their pending invoke (PC) and the exact post-invoke
// pc (ResumePC); the top frame records the MSP it parked at. Statics of
// the classes declaring the captured methods are included; object-typed
// values travel as home references.
// skip is the number of topmost frames to leave out: 0 captures the top
// segment, k captures the residual beneath a k-frame segment.
func CaptureSegment(a *toolif.Agent, t *vm.Thread, skip, nFrames int, homeNode int) (*serial.CapturedState, error) {
	depth := a.GetFrameCount(t)
	if skip < 0 || nFrames <= 0 || skip+nFrames > depth {
		return nil, fmt.Errorf("sodee: capture skip=%d n=%d of depth %d", skip, nFrames, depth)
	}
	prog := a.VM.Prog
	cs := &serial.CapturedState{HomeNode: int32(homeNode), ThreadID: int32(t.ID)}
	classes := map[int32]bool{}

	// toolif depth 0 = top; segment bottom is depth skip+nFrames-1.
	for d := skip + nFrames - 1; d >= skip; d-- {
		mid, pc, err := a.GetFrameLocation(t, d)
		if err != nil {
			return nil, err
		}
		m := prog.Methods[mid]
		cf := serial.CapturedFrame{MethodID: mid, Pinned: a.IsFramePinned(t, d)}
		if d == 0 {
			if !m.IsMSP(pc) {
				return nil, fmt.Errorf("sodee: top frame of %s parked at non-MSP pc %d", m.Name, pc)
			}
			cf.PC = pc
			cf.ResumePC = pc
		} else {
			// pc is the pending invoke instruction (JVMTI reports the call
			// site); the restoration protocol re-enters at the statement
			// start, direct restore continues right after the invoke.
			cf.PC = m.LineStart(pc)
			cf.ResumePC = pc + 1
		}
		nl, err := a.NumLocals(t, d)
		if err != nil {
			return nil, err
		}
		cf.Locals = make([]value.Value, nl)
		for slot := 0; slot < nl; slot++ {
			lv, err := a.GetLocal(t, d, slot) // the expensive call
			if err != nil {
				return nil, err
			}
			cf.Locals[slot] = lv
		}
		cs.Frames = append(cs.Frames, cf)
		if m.ClassID >= 0 {
			classes[m.ClassID] = true
		}
	}

	appendStatics(cs, a.VM.Statics, classes)
	return cs, nil
}

// CaptureDirect captures frames by reading the thread structures directly
// — the JESSICA2 path ("state information can be retrieved directly from
// the JVM kernel"). No per-call tool costs.
// allStatics ships every loaded class's statics (thread migration moves
// the whole thread context).
func CaptureDirect(v *vm.VM, t *vm.Thread, nFrames int, homeNode int, allStatics bool) (*serial.CapturedState, error) {
	depth := t.Depth()
	if nFrames <= 0 || nFrames > depth {
		return nil, fmt.Errorf("sodee: capture %d frames of %d", nFrames, depth)
	}
	cs := &serial.CapturedState{HomeNode: int32(homeNode), ThreadID: int32(t.ID)}
	classes := map[int32]bool{}
	for i := depth - nFrames; i < depth; i++ {
		f := t.Frames[i]
		cf := serial.CapturedFrame{
			MethodID: f.Method.ID,
			Pinned:   f.Pinned,
			Locals:   append([]value.Value(nil), f.Locals...),
		}
		if i == depth-1 {
			cf.PC = f.PC
			cf.ResumePC = f.PC
		} else {
			cf.PC = f.Method.LineStart(f.CallPC())
			cf.ResumePC = f.CallPC() + 1
		}
		cs.Frames = append(cs.Frames, cf)
		if f.Method.ClassID >= 0 {
			classes[f.Method.ClassID] = true
		}
	}
	if allStatics {
		for cid := range v.Statics {
			if v.ClassLoaded(int32(cid)) && len(v.Statics[cid]) > 0 {
				classes[int32(cid)] = true
			}
		}
	}
	appendStatics(cs, v.Statics, classes)
	return cs, nil
}
