// Package serial defines the wire formats for migrated state: captured
// stack frames (CapturedState, §III.B), shallow objects shipped by the
// object manager (§III.C), flush messages carrying results and dirty data
// home, and whole classes for on-demand code shipping.
//
// Two codecs implement each format:
//
//   - Fast: the compact binary codec SODEE-style migration uses — ids and
//     varints, no self-description.
//   - JavaSer: a deliberately self-describing codec modelled on Java
//     serialization — class and field *names*, per-value type tags,
//     fixed-width integers, and a stream header per message. The
//     G-JavaMPI baseline uses it ("all objects are exported using Java
//     serialization"), which is a large part of why its eager-copy
//     migration transfers so much and takes so long; the device profile
//     of §IV.D also uses it (JamVM has no JVMTI, so SODEE fell back to
//     Java serialization there).
//
// Both codecs share the same logical structures, so tests can verify they
// round-trip identically.
package serial

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Codec selects a wire format.
type Codec int

const (
	// Fast is the compact binary codec.
	Fast Codec = iota
	// JavaSer mimics Java serialization (self-describing, verbose).
	JavaSer
)

func (c Codec) String() string {
	if c == JavaSer {
		return "javaser"
	}
	return "fast"
}

// CapturedFrame is one frame of a captured segment, bottom-first in
// CapturedState.Frames. PC is always a statement-start (operand stacks are
// empty there — the migration-safe-point property), so no operand stack is
// captured, exactly as with JVMTI.
type CapturedFrame struct {
	MethodID int32
	// PC is the statement-start pc used by the Fig 4 breakpoint/handler
	// restoration protocol: for the segment's top frame it is the MSP the
	// thread parked at; for every other frame it is the start of the
	// statement containing the pending invoke (re-executing the statement's
	// pure argument loads re-issues the call, which restores the frame
	// above — §III.B.2).
	PC int32
	// ResumePC is the exact continuation pc (one past the pending invoke)
	// used by in-VM direct restoration (the JESSICA2 baseline and the
	// §IV.D device path, which rebuild frames without the debugger).
	ResumePC int32
	Locals   []value.Value
	Pinned   bool
}

// ClassStatics carries the static fields of one class.
type ClassStatics struct {
	ClassID int32
	Values  []value.Value
}

// Visit is one entry of a job's migration trace: the node the job left
// and how long ago it left, measured at capture time. Ages rather than
// absolute timestamps keep the anti-ping-pong cooldown immune to clock
// skew between cluster machines — the receiver re-bases each age against
// its own clock on arrival (the transfer latency slightly extends the
// reconstructed quarantine, which errs on the safe side).
type Visit struct {
	Node     int32
	AgeNanos int64 // nanoseconds since the job left Node, as of capture
}

// CapturedState is the migration payload: the exported stack segment plus
// the statics of the classes it references. Object-typed values are home
// references — remote at the destination until faulted in.
type CapturedState struct {
	HomeNode int32
	ThreadID int32
	// Frames are ordered bottom-first: Frames[0] is the segment's lowest
	// frame (restored first, Fig 4b).
	Frames  []CapturedFrame
	Statics []ClassStatics
	// Hops counts migrations this state has undergone, this transfer
	// included — 1 for a first migration away from home. The re-balancing
	// hop budget is enforced against it.
	Hops int32
	// Visited is the recent migration trace (nodes this job left, newest
	// entries appended), bounded to MaxVisits at capture time.
	Visited []Visit
}

// MaxVisits bounds the trace shipped with a migration: old entries are far
// outside any cooldown window and only cost wire bytes.
const MaxVisits = 8

// WireObject is a shallowly serialized heap object: reference fields carry
// the *home* references of their targets (fetched on demand later), never
// nested object bodies — the "heap-on-demand" half of SOD.
type WireObject struct {
	Ref     value.Ref // the object's identity at its home node
	Class   int32
	IsArray bool
	AKind   int32
	Fields  []value.Value
	AI      []int64
	AF      []float64
	AB      []byte
	AR      []value.Ref
}

// FlushMessage carries a completed segment's results home: the return
// value, updated (dirty) cached objects keyed by home ref, objects newly
// allocated at the destination that escaped (keyed by their destination
// refs — the home node re-homes them and rewrites references), and
// modified statics.
type FlushMessage struct {
	ThreadID  int32
	HasResult bool
	Result    value.Value
	// Updated are dirty copies of home-mastered objects (Ref is the home ref).
	Updated []WireObject
	// Fresh are destination-allocated escaping objects (Ref is the dest ref).
	Fresh   []WireObject
	Statics []ClassStatics
	// Err carries an uncaught-exception description when the segment
	// terminated exceptionally; the home node re-raises it.
	Err string
}

// message kind tags (first byte of every encoded message).
const (
	tagCaptured byte = 0xC1
	tagObject   byte = 0xC2
	tagFlush    byte = 0xC3
	tagClass    byte = 0xC4
)

// value kind tags
const (
	vtInt   byte = 1
	vtFloat byte = 2
	vtRef   byte = 3
	vtInval byte = 4
)

// --- value encoding ---

func encValue(w *wire.Writer, v value.Value, c Codec) {
	switch v.Kind {
	case value.KindInt:
		w.Byte(vtInt)
		if c == JavaSer {
			w.Fixed64(uint64(v.I))
		} else {
			w.Varint(v.I)
		}
	case value.KindFloat:
		w.Byte(vtFloat)
		w.Float64(v.F)
	case value.KindRef:
		w.Byte(vtRef)
		if c == JavaSer {
			w.Fixed64(uint64(v.R))
		} else {
			w.Uvarint(uint64(v.R))
		}
	default:
		w.Byte(vtInval)
	}
}

func decValue(r *wire.Reader, c Codec) value.Value {
	switch r.Byte() {
	case vtInt:
		if c == JavaSer {
			return value.Int(int64(r.Fixed64()))
		}
		return value.Int(r.Varint())
	case vtFloat:
		return value.Float(r.Float64())
	case vtRef:
		if c == JavaSer {
			return value.RefVal(value.Ref(r.Fixed64()))
		}
		return value.RefVal(value.Ref(r.Uvarint()))
	default:
		return value.Value{}
	}
}

func encValues(w *wire.Writer, vs []value.Value, c Codec) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		encValue(w, v, c)
	}
}

func decValues(r *wire.Reader, c Codec) []value.Value {
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil
	}
	vs := make([]value.Value, n)
	for i := range vs {
		vs[i] = decValue(r, c)
	}
	return vs
}

// javaSerHeader mimics the ObjectOutputStream stream magic + a class
// descriptor preamble per message.
func javaSerHeader(w *wire.Writer, desc string) {
	w.Fixed32(0xACED0005)
	w.String("sodee.serial." + desc)
	w.Fixed64(0x1234567890ABCDEF) // serialVersionUID
}

func javaSerCheck(r *wire.Reader, desc string) error {
	if r.Fixed32() != 0xACED0005 {
		return fmt.Errorf("serial: bad javaser magic")
	}
	if got := r.String(); got != "sodee.serial."+desc {
		return fmt.Errorf("serial: bad descriptor %q", got)
	}
	r.Fixed64()
	return r.Err()
}

// --- CapturedState ---

// encFrame writes one frame in the codec's per-frame layout; the unit is
// self-delimiting, so the same bytes work inline in a CapturedState or as
// a standalone delta unit (EncodeFrame).
func encFrame(w *wire.Writer, f *CapturedFrame, prog *bytecode.Program, c Codec) {
	if c == JavaSer {
		m := prog.Methods[f.MethodID]
		w.String(prog.QualifiedName(m))
		w.Fixed32(uint32(f.PC))
		w.Uvarint(uint64(len(f.Locals)))
		for slot, lv := range f.Locals {
			w.String(fmt.Sprintf("slot%d", slot)) // variable descriptor
			encValue(w, lv, c)
		}
	} else {
		w.Varint(int64(f.MethodID))
		w.Varint(int64(f.PC))
		encValues(w, f.Locals, c)
	}
	w.Varint(int64(f.ResumePC))
	w.Bool(f.Pinned)
}

func decFrame(r *wire.Reader, prog *bytecode.Program, c Codec) (CapturedFrame, error) {
	var f CapturedFrame
	if c == JavaSer {
		name := r.String()
		mid := prog.MethodByName(name)
		if mid < 0 {
			return f, fmt.Errorf("serial: unknown method %q", name)
		}
		f.MethodID = mid
		f.PC = int32(r.Fixed32())
		n := r.Uvarint()
		if r.Err() != nil || n > uint64(r.Remaining()) {
			return f, fmt.Errorf("serial: corrupt locals count")
		}
		f.Locals = make([]value.Value, n)
		for j := range f.Locals {
			_ = r.String() // descriptor, ignored on decode
			f.Locals[j] = decValue(r, c)
		}
	} else {
		f.MethodID = int32(r.Varint())
		f.PC = int32(r.Varint())
		f.Locals = decValues(r, c)
	}
	f.ResumePC = int32(r.Varint())
	f.Pinned = r.Bool()
	return f, r.Err()
}

// EncodeFrame serializes one frame as a standalone unit — the content the
// delta path hashes and caches per link. The bytes are identical to the
// frame's inline representation inside EncodeCapturedState.
func EncodeFrame(f *CapturedFrame, prog *bytecode.Program, c Codec) []byte {
	w := wire.NewWriter(64)
	encFrame(w, f, prog, c)
	return w.Bytes()
}

// DecodeFrame parses a standalone frame unit produced by EncodeFrame.
func DecodeFrame(buf []byte, prog *bytecode.Program, c Codec) (CapturedFrame, error) {
	r := wire.NewReader(buf)
	f, err := decFrame(r, prog, c)
	if err != nil {
		return f, err
	}
	return f, r.Err()
}

// encClassStatics writes one class's statics block (same inline/standalone
// duality as encFrame).
func encClassStatics(w *wire.Writer, s *ClassStatics, prog *bytecode.Program, c Codec) {
	if c == JavaSer {
		cl := prog.Classes[s.ClassID]
		w.String(cl.Name)
		w.Uvarint(uint64(len(s.Values)))
		for i, sv := range s.Values {
			name := "?"
			if i < len(cl.Statics) {
				name = cl.Statics[i].Name
			}
			w.String(name)
			encValue(w, sv, c)
		}
	} else {
		w.Varint(int64(s.ClassID))
		encValues(w, s.Values, c)
	}
}

func decClassStatics(r *wire.Reader, prog *bytecode.Program, c Codec) (ClassStatics, error) {
	var s ClassStatics
	if c == JavaSer {
		name := r.String()
		cid := prog.ClassByName(name)
		if cid < 0 {
			return s, fmt.Errorf("serial: unknown class %q", name)
		}
		s.ClassID = cid
		n := r.Uvarint()
		if r.Err() != nil || n > uint64(r.Remaining()) {
			return s, fmt.Errorf("serial: corrupt statics")
		}
		s.Values = make([]value.Value, n)
		for j := range s.Values {
			_ = r.String() // field descriptor
			s.Values[j] = decValue(r, c)
		}
	} else {
		s.ClassID = int32(r.Varint())
		s.Values = decValues(r, c)
	}
	return s, r.Err()
}

// EncodeClassStatics serializes one class's statics as a standalone unit.
func EncodeClassStatics(s *ClassStatics, prog *bytecode.Program, c Codec) []byte {
	w := wire.NewWriter(32)
	encClassStatics(w, s, prog, c)
	return w.Bytes()
}

// DecodeClassStatics parses a standalone statics unit.
func DecodeClassStatics(buf []byte, prog *bytecode.Program, c Codec) (ClassStatics, error) {
	r := wire.NewReader(buf)
	return decClassStatics(r, prog, c)
}

// Hash64 is the content hash the delta protocol keys its link caches by:
// 64-bit FNV-1a over the encoded unit bytes. Not cryptographic — peers in
// one cluster are mutually trusted; a collision costs a wrong restore, so
// 64 bits over the handful of live units per link is comfortable.
func Hash64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// EncodeCapturedState serializes cs. The JavaSer form additionally writes
// method names and per-slot descriptors, as the paper's device fallback
// does.
func EncodeCapturedState(cs *CapturedState, prog *bytecode.Program, c Codec) []byte {
	w := wire.NewWriter(256)
	w.Byte(tagCaptured)
	if c == JavaSer {
		javaSerHeader(w, "CapturedState")
	}
	w.Varint(int64(cs.HomeNode))
	w.Varint(int64(cs.ThreadID))
	w.Uvarint(uint64(len(cs.Frames)))
	for i := range cs.Frames {
		encFrame(w, &cs.Frames[i], prog, c)
	}
	w.Uvarint(uint64(len(cs.Statics)))
	for i := range cs.Statics {
		encClassStatics(w, &cs.Statics[i], prog, c)
	}
	w.Varint(int64(cs.Hops))
	visited := cs.Visited
	if len(visited) > MaxVisits {
		visited = visited[len(visited)-MaxVisits:]
	}
	w.Uvarint(uint64(len(visited)))
	for _, v := range visited {
		w.Varint(int64(v.Node))
		w.Varint(v.AgeNanos)
	}
	return w.Bytes()
}

// DecodeCapturedState parses an encoded CapturedState.
func DecodeCapturedState(buf []byte, prog *bytecode.Program, c Codec) (*CapturedState, error) {
	r := wire.NewReader(buf)
	r.Expect(tagCaptured)
	if c == JavaSer {
		if err := javaSerCheck(r, "CapturedState"); err != nil {
			return nil, err
		}
	}
	cs := &CapturedState{
		HomeNode: int32(r.Varint()),
		ThreadID: int32(r.Varint()),
	}
	nf := r.Uvarint()
	if r.Err() != nil || nf > uint64(r.Remaining())+64 {
		return nil, fmt.Errorf("serial: corrupt frame count")
	}
	for i := uint64(0); i < nf; i++ {
		f, err := decFrame(r, prog, c)
		if err != nil {
			return nil, err
		}
		cs.Frames = append(cs.Frames, f)
	}
	ns := r.Uvarint()
	if r.Err() != nil || ns > uint64(r.Remaining())+64 {
		return nil, fmt.Errorf("serial: corrupt statics count")
	}
	for i := uint64(0); i < ns; i++ {
		s, err := decClassStatics(r, prog, c)
		if err != nil {
			return nil, err
		}
		cs.Statics = append(cs.Statics, s)
	}
	cs.Hops = int32(r.Varint())
	for i, n := 0, int(r.Uvarint()); i < n && r.Err() == nil; i++ {
		cs.Visited = append(cs.Visited, Visit{Node: int32(r.Varint()), AgeNanos: r.Varint()})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return cs, nil
}

// --- objects ---

// SnapshotObject builds the shallow wire form of a live object. Reference
// fields are passed through verbatim: on the destination they are remote
// (their node id differs) and fault on use.
func SnapshotObject(ref value.Ref, o *vm.Object) WireObject {
	wo := WireObject{Ref: ref, Class: o.Class, IsArray: o.IsArray, AKind: o.AKind}
	if o.IsArray {
		switch o.AKind {
		case bytecode.ArrKindInt:
			wo.AI = append([]int64(nil), o.AI...)
		case bytecode.ArrKindFloat:
			wo.AF = append([]float64(nil), o.AF...)
		case bytecode.ArrKindByte:
			wo.AB = append([]byte(nil), o.AB...)
		case bytecode.ArrKindRef:
			wo.AR = append([]value.Ref(nil), o.AR...)
		}
		return wo
	}
	wo.Fields = append([]value.Value(nil), o.Fields...)
	return wo
}

// Materialize converts a wire object into a heap object marked as a cached
// copy of its home master (Home = wo.Ref, Status = 1/valid).
func (wo *WireObject) Materialize() *vm.Object {
	o := &vm.Object{
		Class:   wo.Class,
		Home:    wo.Ref,
		Status:  1,
		IsArray: wo.IsArray,
		AKind:   wo.AKind,
	}
	if wo.IsArray {
		o.AI = append([]int64(nil), wo.AI...)
		o.AF = append([]float64(nil), wo.AF...)
		o.AB = append([]byte(nil), wo.AB...)
		o.AR = append([]value.Ref(nil), wo.AR...)
	} else {
		o.Fields = append([]value.Value(nil), wo.Fields...)
	}
	return o
}

func encObjectBody(w *wire.Writer, wo *WireObject, prog *bytecode.Program, c Codec) {
	if c == JavaSer {
		javaSerHeader(w, "Object")
		w.String(prog.Classes[wo.Class].Name)
	}
	w.Uvarint(uint64(wo.Ref))
	w.Varint(int64(wo.Class))
	w.Bool(wo.IsArray)
	w.Varint(int64(wo.AKind))
	if wo.IsArray {
		switch wo.AKind {
		case bytecode.ArrKindInt:
			w.Int64Slice(wo.AI)
		case bytecode.ArrKindFloat:
			w.Float64Slice(wo.AF)
		case bytecode.ArrKindByte:
			w.Blob(wo.AB)
		case bytecode.ArrKindRef:
			us := make([]uint64, len(wo.AR))
			for i, rr := range wo.AR {
				us[i] = uint64(rr)
			}
			w.Uint64Slice(us)
		}
		return
	}
	if c == JavaSer {
		cl := prog.Classes[wo.Class]
		w.Uvarint(uint64(len(wo.Fields)))
		for i, fv := range wo.Fields {
			name := "?"
			if i < len(cl.Fields) {
				name = cl.Fields[i].Name
			}
			w.String(name)
			encValue(w, fv, c)
		}
		return
	}
	encValues(w, wo.Fields, c)
}

func decObjectBody(r *wire.Reader, prog *bytecode.Program, c Codec) (WireObject, error) {
	var wo WireObject
	if c == JavaSer {
		if err := javaSerCheck(r, "Object"); err != nil {
			return wo, err
		}
		_ = r.String() // class name (redundant with id)
	}
	wo.Ref = value.Ref(r.Uvarint())
	wo.Class = int32(r.Varint())
	wo.IsArray = r.Bool()
	wo.AKind = int32(r.Varint())
	if wo.IsArray {
		switch wo.AKind {
		case bytecode.ArrKindInt:
			wo.AI = r.Int64Slice()
		case bytecode.ArrKindFloat:
			wo.AF = r.Float64Slice()
		case bytecode.ArrKindByte:
			wo.AB = r.Blob()
		case bytecode.ArrKindRef:
			us := r.Uint64Slice()
			wo.AR = make([]value.Ref, len(us))
			for i, u := range us {
				wo.AR[i] = value.Ref(u)
			}
		}
		return wo, r.Err()
	}
	if c == JavaSer {
		n := r.Uvarint()
		if r.Err() != nil || n > uint64(r.Remaining()) {
			return wo, fmt.Errorf("serial: corrupt field count")
		}
		wo.Fields = make([]value.Value, n)
		for i := range wo.Fields {
			_ = r.String() // field descriptor
			wo.Fields[i] = decValue(r, c)
		}
		return wo, r.Err()
	}
	wo.Fields = decValues(r, c)
	return wo, r.Err()
}

// EncodeObject serializes one wire object.
func EncodeObject(wo *WireObject, prog *bytecode.Program, c Codec) []byte {
	w := wire.NewWriter(64 + int(approxPayload(wo)))
	w.Byte(tagObject)
	encObjectBody(w, wo, prog, c)
	return w.Bytes()
}

// DecodeObject parses one wire object.
func DecodeObject(buf []byte, prog *bytecode.Program, c Codec) (WireObject, error) {
	r := wire.NewReader(buf)
	r.Expect(tagObject)
	return decObjectBody(r, prog, c)
}

func approxPayload(wo *WireObject) int64 {
	return int64(8*len(wo.AI)+8*len(wo.AF)+len(wo.AB)+8*len(wo.AR)) + int64(10*len(wo.Fields))
}

// --- flush ---

// EncodeFlush serializes a flush message.
func EncodeFlush(fm *FlushMessage, prog *bytecode.Program, c Codec) []byte {
	w := wire.NewWriter(256)
	w.Byte(tagFlush)
	if c == JavaSer {
		javaSerHeader(w, "Flush")
	}
	w.Varint(int64(fm.ThreadID))
	w.Bool(fm.HasResult)
	encValue(w, fm.Result, c)
	w.String(fm.Err)
	w.Uvarint(uint64(len(fm.Updated)))
	for i := range fm.Updated {
		encObjectBody(w, &fm.Updated[i], prog, c)
	}
	w.Uvarint(uint64(len(fm.Fresh)))
	for i := range fm.Fresh {
		encObjectBody(w, &fm.Fresh[i], prog, c)
	}
	w.Uvarint(uint64(len(fm.Statics)))
	for _, s := range fm.Statics {
		w.Varint(int64(s.ClassID))
		encValues(w, s.Values, c)
	}
	return w.Bytes()
}

// DecodeFlush parses a flush message.
func DecodeFlush(buf []byte, prog *bytecode.Program, c Codec) (*FlushMessage, error) {
	r := wire.NewReader(buf)
	r.Expect(tagFlush)
	if c == JavaSer {
		if err := javaSerCheck(r, "Flush"); err != nil {
			return nil, err
		}
	}
	fm := &FlushMessage{ThreadID: int32(r.Varint())}
	fm.HasResult = r.Bool()
	fm.Result = decValue(r, c)
	fm.Err = r.String()
	for i, n := 0, int(r.Uvarint()); i < n && r.Err() == nil; i++ {
		wo, err := decObjectBody(r, prog, c)
		if err != nil {
			return nil, err
		}
		fm.Updated = append(fm.Updated, wo)
	}
	for i, n := 0, int(r.Uvarint()); i < n && r.Err() == nil; i++ {
		wo, err := decObjectBody(r, prog, c)
		if err != nil {
			return nil, err
		}
		fm.Fresh = append(fm.Fresh, wo)
	}
	for i, n := 0, int(r.Uvarint()); i < n && r.Err() == nil; i++ {
		s := ClassStatics{ClassID: int32(r.Varint())}
		s.Values = decValues(r, c)
		fm.Statics = append(fm.Statics, s)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return fm, nil
}
