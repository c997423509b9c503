// Package bytecode defines the SVM instruction set, the program model
// (classes, fields, methods, exception tables, line tables, migration-safe
// point tables), a structural verifier that also computes operand-stack
// bounds, and a disassembler.
//
// The instruction set is a compact register-free stack ISA modelled on the
// JVM's: values live on a per-frame operand stack, locals are numbered
// slots, exception handling is table-driven over pc ranges, and method
// invocation pushes a fresh frame. These are exactly the properties the SOD
// paper exploits: a frame is a self-contained activation record (pc, locals,
// operand stack) that can be captured at points where the operand stack is
// empty ("migration-safe points") and restored elsewhere.
package bytecode

import "fmt"

// Op is an SVM opcode.
type Op uint8

// The instruction set. A and B are the two int32 operands of Instr; their
// meaning per opcode is given in the comments.
const (
	OpNop Op = iota

	// Constants and locals.
	OpConst  // push method.Consts[A]
	OpIConst // push Int(A) — fast path for small integers
	OpNull   // push null reference
	OpSConst // push interned string object for method.Strings[A]
	OpLoad   // push locals[A]
	OpStore  // locals[A] = pop

	// Operand-stack shuffling.
	OpPop  // discard top
	OpDup  // duplicate top
	OpSwap // swap top two

	// Arithmetic (polymorphic over int/float; int/int division by zero
	// raises ArithmeticException).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg

	// Integer bitwise / logical.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNot // logical not: push 1 if pop is zero int, else 0

	// Conversions.
	OpI2F
	OpF2I

	// Comparisons: push Int(0/1). Numeric compare int/float; OpEq/OpNe also
	// compare references.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Control flow.
	OpJmp     // pc = A
	OpJz      // if !pop.IsTruthy() { pc = A }
	OpJnz     // if pop.IsTruthy() { pc = A }
	OpTSwitch // pop int key; jump via method.Switches[A]; see SwitchTable

	// Objects and fields.
	OpNew       // push ref to new instance of class A
	OpGetF      // obj = pop; push obj.fields[A]
	OpPutF      // val = pop; obj = pop; obj.fields[A] = val
	OpGetS      // push statics[class A][field B]
	OpPutS      // statics[class A][field B] = pop
	OpGetStatus // obj = pop; push Int(status word) — used by the status-check DSM baseline
	OpInstOf    // obj = pop; push 1 if obj is instance of class A (or subclass)
	OpCheckCast // obj = top of stack; raise ClassCastException unless instance of class A (null passes)

	// Arrays. Element kinds are the ArrKind* constants.
	OpNewArr // len = pop; push ref to new array of elem-kind A
	OpALoad  // idx = pop; arr = pop; push arr[idx]
	OpAStore // val = pop; idx = pop; arr = pop; arr[idx] = val
	OpArrLen // arr = pop; push Int(len)

	// Calls. A = method id (OpCall/OpTail), vtable-name id (OpCallV) or
	// native id (OpCallNat); B = argument count (receiver included for
	// instance methods). Arguments are popped right-to-left into the callee's
	// first B local slots.
	OpCall    // static dispatch
	OpCallV   // virtual dispatch on the class of the receiver (args[0])
	OpCallNat // native function call; executes inline, no frame pushed

	// Returns and exceptions.
	OpRet   // return void
	OpRetV  // return pop to caller
	OpThrow // exc = pop (ref); raise it

	opCount // sentinel — number of opcodes
)

// NumOps is the number of defined opcodes.
const NumOps = int(opCount)

// Array element kinds (operand A of OpNewArr).
const (
	ArrKindInt   = 0 // elements are int64
	ArrKindFloat = 1 // elements are float64
	ArrKindByte  = 2 // elements are bytes (loaded/stored as ints 0..255)
	ArrKindRef   = 3 // elements are references
)

// Instr is a single decoded instruction. Instructions are fixed-size; pc
// values index into a method's Code slice directly.
type Instr struct {
	Op Op
	A  int32
	B  int32
}

var opNames = [...]string{
	OpNop:   "nop",
	OpConst: "const", OpIConst: "iconst", OpNull: "null", OpSConst: "sconst",
	OpLoad: "load", OpStore: "store",
	OpPop: "pop", OpDup: "dup", OpSwap: "swap",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod", OpNeg: "neg",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr", OpNot: "not",
	OpI2F: "i2f", OpF2I: "f2i",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz", OpTSwitch: "tswitch",
	OpNew: "new", OpGetF: "getf", OpPutF: "putf", OpGetS: "gets", OpPutS: "puts",
	OpGetStatus: "getstatus", OpInstOf: "instof", OpCheckCast: "checkcast",
	OpNewArr: "newarr", OpALoad: "aload", OpAStore: "astore", OpArrLen: "arrlen",
	OpCall: "call", OpCallV: "callv", OpCallNat: "callnat",
	OpRet: "ret", OpRetV: "retv", OpThrow: "throw",
}

// String returns the mnemonic of the opcode.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// stackEffect describes how an opcode changes operand-stack depth:
// pops then pushes. Call-like and switch opcodes are handled specially by
// the verifier (variable arity), flagged with varPop.
type stackEffect struct {
	pop, push int
	varPop    bool
}

var effects = [...]stackEffect{
	OpNop:    {0, 0, false},
	OpConst:  {0, 1, false},
	OpIConst: {0, 1, false},
	OpNull:   {0, 1, false},
	OpSConst: {0, 1, false},
	OpLoad:   {0, 1, false},
	OpStore:  {1, 0, false},
	OpPop:    {1, 0, false},
	OpDup:    {1, 2, false},
	OpSwap:   {2, 2, false},
	OpAdd:    {2, 1, false}, OpSub: {2, 1, false}, OpMul: {2, 1, false},
	OpDiv: {2, 1, false}, OpMod: {2, 1, false}, OpNeg: {1, 1, false},
	OpAnd: {2, 1, false}, OpOr: {2, 1, false}, OpXor: {2, 1, false},
	OpShl: {2, 1, false}, OpShr: {2, 1, false}, OpNot: {1, 1, false},
	OpI2F: {1, 1, false}, OpF2I: {1, 1, false},
	OpEq: {2, 1, false}, OpNe: {2, 1, false}, OpLt: {2, 1, false},
	OpLe: {2, 1, false}, OpGt: {2, 1, false}, OpGe: {2, 1, false},
	OpJmp: {0, 0, false}, OpJz: {1, 0, false}, OpJnz: {1, 0, false},
	OpTSwitch:   {1, 0, false},
	OpNew:       {0, 1, false},
	OpGetF:      {1, 1, false},
	OpPutF:      {2, 0, false},
	OpGetS:      {0, 1, false},
	OpPutS:      {1, 0, false},
	OpGetStatus: {1, 1, false},
	OpInstOf:    {1, 1, false},
	OpCheckCast: {1, 1, false},
	OpNewArr:    {1, 1, false},
	OpALoad:     {2, 1, false},
	OpAStore:    {3, 0, false},
	OpArrLen:    {1, 1, false},
	OpCall:      {0, 0, true}, // pops B, pushes 0 or 1 depending on callee
	OpCallV:     {0, 0, true},
	OpCallNat:   {0, 0, true},
	OpRet:       {0, 0, false},
	OpRetV:      {1, 0, false},
	OpThrow:     {1, 0, false},
}

// Effect returns the static stack effect of op. For call-like opcodes the
// varPop flag is set and pops/pushes must be derived from the call target.
func (op Op) Effect() (pops, pushes int, variable bool) {
	e := effects[op]
	return e.pop, e.push, e.varPop
}

// IsTerminal reports whether control never falls through this opcode to
// the next instruction.
func (op Op) IsTerminal() bool {
	switch op {
	case OpJmp, OpTSwitch, OpRet, OpRetV, OpThrow:
		return true
	}
	return false
}

// IsBranch reports whether the opcode's A operand is a jump target.
func (op Op) IsBranch() bool {
	switch op {
	case OpJmp, OpJz, OpJnz:
		return true
	}
	return false
}
