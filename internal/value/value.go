// Package value defines the runtime value representation of the SVM (the
// stack-based virtual machine that plays the role of the JVM in the SOD
// paper). Values flow through operand stacks, local variable slots, object
// fields and the wire codecs, so the representation is shared by almost
// every package in the system.
//
// A Value is a small tagged union: 64-bit integers, 64-bit floats and
// references. References identify heap objects and carry their allocating
// node in the high bits so that an object's *home identity* survives
// migration — the destination node of a SOD migration caches objects under
// their home reference, exactly as SODEE's object manager keys remote
// objects by their identity at the home JVM.
//
// A reference may additionally be a *remote stub*: the Go analog of the
// paper's "restore object-typed state as null". A stub names a home object
// but has no local storage; any *use* of a stub (field access, array access,
// virtual dispatch) raises the same NullPointerException the paper's nulled
// references raise, which the injected object-fault handlers catch. Merely
// copying a stub between slots is free, matching the paper's free copying of
// null references.
package value

import "fmt"

// Kind discriminates the payload of a Value.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it marks unset locals and is illegal on
	// operand stacks (the verifier rejects programs that could observe it).
	KindInvalid Kind = iota
	// KindInt is a 64-bit signed integer (also used for booleans: 0/1).
	KindInt
	// KindFloat is a 64-bit IEEE-754 float.
	KindFloat
	// KindRef is an object reference; R == NullRef means null.
	KindRef
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindRef:
		return "ref"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Ref identifies a heap object. The bit layout is:
//
//	bit  63     stub flag (remote stub — see package comment)
//	bits 62..48 allocating node id (15 bits)
//	bits 47..0  per-node allocation sequence number (starts at 1)
//
// The zero Ref is null.
type Ref uint64

// NullRef is the null reference.
const NullRef Ref = 0

const (
	stubBit   Ref = 1 << 63
	nodeShift     = 48
	nodeMask  Ref = (1<<15 - 1) << nodeShift
	seqMask   Ref = 1<<nodeShift - 1
)

// MaxNodeID is the largest node id a Ref can carry.
const MaxNodeID = 1<<15 - 1

// MakeRef builds a non-stub reference for the given node and sequence
// number. It panics if either component is out of range or seq is zero
// (sequence numbers start at 1 so that the zero Ref stays null).
func MakeRef(node int, seq uint64) Ref {
	if node < 0 || node > MaxNodeID {
		panic(fmt.Sprintf("value: node id %d out of range", node))
	}
	if seq == 0 || seq > uint64(seqMask) {
		panic(fmt.Sprintf("value: sequence number %d out of range", seq))
	}
	return Ref(uint64(node)<<nodeShift) | Ref(seq)
}

// IsNull reports whether r is the null reference.
func (r Ref) IsNull() bool { return r == NullRef }

// IsStub reports whether r is a remote stub.
func (r Ref) IsStub() bool { return r&stubBit != 0 }

// Stub returns the stub form of r: a reference naming the same home object
// but with no local storage. Stubbing null yields null.
func (r Ref) Stub() Ref {
	if r == NullRef {
		return NullRef
	}
	return r | stubBit
}

// Unstub returns the plain (non-stub) form of r.
func (r Ref) Unstub() Ref { return r &^ stubBit }

// Node returns the allocating node id encoded in r.
func (r Ref) Node() int { return int((r & nodeMask) >> nodeShift) }

// Seq returns the per-node sequence number encoded in r.
func (r Ref) Seq() uint64 { return uint64(r & seqMask) }

// Usable reports whether r can be dereferenced locally: it must be neither
// null nor a stub. This is the single check the interpreter performs before
// every object use — the same check a JVM performs for null safety, which
// is exactly the "free ride" the paper's object faulting exploits.
func (r Ref) Usable() bool { return r != NullRef && r&stubBit == 0 }

// String formats the reference for debugging.
func (r Ref) String() string {
	if r == NullRef {
		return "null"
	}
	s := ""
	if r.IsStub() {
		s = "stub:"
	}
	return fmt.Sprintf("%sn%d#%d", s, r.Node(), r.Seq())
}

// Value is the SVM's tagged runtime value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	R    Ref
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Bool returns an integer Value encoding b as 0/1.
func Bool(b bool) Value {
	if b {
		return Value{Kind: KindInt, I: 1}
	}
	return Value{Kind: KindInt}
}

// Float returns a float Value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// RefVal returns a reference Value.
func RefVal(r Ref) Value { return Value{Kind: KindRef, R: r} }

// Null returns the null reference Value.
func Null() Value { return Value{Kind: KindRef} }

// IsTruthy reports whether v is a non-zero int, non-zero float, or
// non-null reference; used by conditional jumps.
func (v Value) IsTruthy() bool {
	switch v.Kind {
	case KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindRef:
		return v.R != NullRef
	default:
		return false
	}
}

// AsFloat converts an int or float Value to float64.
func (v Value) AsFloat() float64 {
	if v.Kind == KindInt {
		return float64(v.I)
	}
	return v.F
}

// AsInt converts an int or float Value to int64 (floats truncate).
func (v Value) AsInt() int64 {
	if v.Kind == KindFloat {
		return int64(v.F)
	}
	return v.I
}

// Equal reports deep equality of two values (kind and payload).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	case KindRef:
		return v.R == o.R
	default:
		return true
	}
}

// String formats the value for debugging and disassembly.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	case KindRef:
		return v.R.String()
	default:
		return "<invalid>"
	}
}
