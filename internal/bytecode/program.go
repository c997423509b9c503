package bytecode

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// Field describes an instance or static field of a class.
type Field struct {
	Name string
	Kind value.Kind // KindInt, KindFloat or KindRef
}

// Class is a loaded class: named fields, statics and a method set. Classes
// support single inheritance for dispatch and instanceof; fields of a
// subclass are appended after the superclass's (slot numbering is global
// over the flattened hierarchy, as in most JVM object layouts).
type Class struct {
	ID      int32
	Name    string
	Super   int32 // superclass id, or -1
	Fields  []Field
	Statics []Field
	// Methods maps method name → method id, for methods declared directly
	// on this class. Virtual dispatch walks the superclass chain.
	Methods map[string]int32
}

// ExRange is one exception-table entry: if an exception of class ClassID
// (or any class when ClassID < 0) is raised while From <= pc < To, control
// transfers to Handler with the exception object as the only operand-stack
// value. Entries are matched in order, innermost-first by construction.
type ExRange struct {
	From, To, Handler int32
	ClassID           int32
}

// LineEntry maps a pc to a source line number (used by the preprocessor to
// identify statement boundaries, and by the disassembler).
type LineEntry struct {
	PC   int32
	Line int32
}

// SwitchTable backs an OpTSwitch instruction: the popped key is looked up
// in Keys (sorted); a match jumps to the corresponding Targets entry, a
// miss jumps to Default. This is the analog of the JVM lookupswitch the
// paper's restoration handlers use to jump to the saved pc.
type SwitchTable struct {
	Keys    []int32
	Targets []int32
	Default int32
}

// Lookup returns the jump target for key.
func (s *SwitchTable) Lookup(key int32) int32 {
	i := sort.Search(len(s.Keys), func(i int) bool { return s.Keys[i] >= key })
	if i < len(s.Keys) && s.Keys[i] == key {
		return s.Targets[i]
	}
	return s.Default
}

// Method is a loaded method body plus its side tables.
type Method struct {
	ID      int32
	ClassID int32 // declaring class, or -1 for free functions
	Name    string
	// NArgs is the number of argument slots, receiver included for instance
	// methods. Arguments occupy locals[0..NArgs-1].
	NArgs int
	// NLocals is the total local slot count (>= NArgs).
	NLocals int
	// MaxStack is the verified operand stack bound.
	MaxStack int
	// ReturnsValue reports whether the method returns a value (OpRetV).
	ReturnsValue bool
	// Virtual marks instance methods (receiver in locals[0]).
	Virtual bool

	Code     []Instr
	Consts   []value.Value
	Strings  []string
	Except   []ExRange
	Lines    []LineEntry
	Switches []SwitchTable

	// MSPs lists the migration-safe points: pcs at which the operand stack
	// of this frame is provably empty and execution is not inside a native
	// call. Populated by the preprocessor (§III.B.1 of the paper). Sorted.
	MSPs []int32

	// Pragmas carries assembler markers consumed by later stages, e.g.
	// "nopreprocess" (skip all transforms) or "pin" (frame may not migrate,
	// §IV.D's socket-holding frames). Nil when absent.
	Pragmas map[string]bool

	// mspSet is a bitmap over pcs derived from MSPs, built lazily.
	mspSet []uint64
}

// IsMSP reports whether pc is a migration-safe point of this method.
func (m *Method) IsMSP(pc int32) bool {
	if m.mspSet == nil {
		return false
	}
	if pc < 0 || int(pc) >= len(m.Code) {
		return false
	}
	return m.mspSet[pc>>6]&(1<<(uint(pc)&63)) != 0
}

// BuildMSPSet (re)builds the MSP bitmap from MSPs. Must be called after
// mutating MSPs; the assembler and preprocessor do this automatically.
func (m *Method) BuildMSPSet() {
	if len(m.MSPs) == 0 {
		m.mspSet = nil
		return
	}
	m.mspSet = make([]uint64, (len(m.Code)+63)/64)
	for _, pc := range m.MSPs {
		if pc >= 0 && int(pc) < len(m.Code) {
			m.mspSet[pc>>6] |= 1 << (uint(pc) & 63)
		}
	}
}

// LineAt returns the source line covering pc, or -1.
func (m *Method) LineAt(pc int32) int32 {
	line := int32(-1)
	for _, le := range m.Lines {
		if le.PC > pc {
			break
		}
		line = le.Line
	}
	return line
}

// LineStart returns the pc of the first instruction of the line covering
// pc, or 0 when the method has no line table.
func (m *Method) LineStart(pc int32) int32 {
	start := int32(0)
	for _, le := range m.Lines {
		if le.PC > pc {
			break
		}
		start = le.PC
	}
	return start
}

// CodeSize returns the serialized size of the method body in bytes,
// using the fixed 9-byte instruction encoding (1 op + 2×4 operands). This
// is the figure used for the paper's Fig 5 class-file size comparison.
func (m *Method) CodeSize() int {
	size := len(m.Code) * 9
	size += len(m.Except) * 16
	for _, s := range m.Switches {
		size += 4 + 8*len(s.Keys)
	}
	for _, c := range m.Consts {
		_ = c
		size += 9
	}
	for _, s := range m.Strings {
		size += 2 + len(s)
	}
	return size
}

// NativeSig describes a registered native function: its name and argument
// count. The actual Go implementation is bound per-VM at runtime; the
// program only records the interface, like JNI method declarations.
type NativeSig struct {
	Name         string
	NArgs        int
	ReturnsValue bool
}

// Program is an immutable, fully-resolved program: the unit the class
// preprocessor transforms and the migration managers ship between nodes.
// VMs on all nodes share Program pointers for code they have loaded;
// per-class code shipping is modelled at the sodee layer.
type Program struct {
	Classes []*Class
	Methods []*Method
	Natives []NativeSig
	// VNames is the virtual-dispatch name table: OpCallV's A operand indexes
	// it; dispatch resolves VNames[A] against the receiver's class chain.
	VNames []string

	classByName  map[string]int32
	methodByName map[string]int32 // "Class.method" or plain name
	nativeByName map[string]int32
	vnameIndex   map[string]int32
}

// BuildIndexes (re)builds the name lookup maps. Must be called after
// construction; the assembler does this automatically.
func (p *Program) BuildIndexes() {
	p.classByName = make(map[string]int32, len(p.Classes))
	for _, c := range p.Classes {
		p.classByName[c.Name] = c.ID
	}
	p.methodByName = make(map[string]int32, len(p.Methods))
	for _, m := range p.Methods {
		p.methodByName[p.QualifiedName(m)] = m.ID
	}
	p.nativeByName = make(map[string]int32, len(p.Natives))
	for i, n := range p.Natives {
		p.nativeByName[n.Name] = int32(i)
	}
	p.vnameIndex = make(map[string]int32, len(p.VNames))
	for i, n := range p.VNames {
		p.vnameIndex[n] = int32(i)
	}
}

// QualifiedName returns "Class.method" for class methods and the bare
// method name for free functions.
func (p *Program) QualifiedName(m *Method) string {
	if m.ClassID >= 0 {
		return p.Classes[m.ClassID].Name + "." + m.Name
	}
	return m.Name
}

// ClassByName returns the class id for name, or -1.
func (p *Program) ClassByName(name string) int32 {
	if id, ok := p.classByName[name]; ok {
		return id
	}
	return -1
}

// MethodByName returns the method id for a qualified name, or -1.
func (p *Program) MethodByName(name string) int32 {
	if id, ok := p.methodByName[name]; ok {
		return id
	}
	return -1
}

// NativeByName returns the native id for name, or -1.
func (p *Program) NativeByName(name string) int32 {
	if id, ok := p.nativeByName[name]; ok {
		return id
	}
	return -1
}

// VNameID returns the virtual-name id for name, or -1.
func (p *Program) VNameID(name string) int32 {
	if id, ok := p.vnameIndex[name]; ok {
		return id
	}
	return -1
}

// ResolveVirtual resolves a virtual call of VNames[vname] on class cid,
// walking the superclass chain. Returns the method id or -1.
func (p *Program) ResolveVirtual(cid int32, vname int32) int32 {
	name := p.VNames[vname]
	for cid >= 0 {
		c := p.Classes[cid]
		if mid, ok := c.Methods[name]; ok {
			return mid
		}
		cid = c.Super
	}
	return -1
}

// InstanceOf reports whether class cid is tid or a subclass of tid.
func (p *Program) InstanceOf(cid, tid int32) bool {
	for cid >= 0 {
		if cid == tid {
			return true
		}
		cid = p.Classes[cid].Super
	}
	return false
}

// NumInstanceFields returns the flattened instance-field count of class
// cid including inherited fields. With the assembler's flat field layout
// (subclasses repeat inherited fields), this is len(Fields).
func (p *Program) NumInstanceFields(cid int32) int {
	return len(p.Classes[cid].Fields)
}

// Validate performs cheap structural checks that do not require dataflow
// (the full verifier lives in verify.go): id consistency and table bounds.
func (p *Program) Validate() error {
	for i, c := range p.Classes {
		if c.ID != int32(i) {
			return fmt.Errorf("bytecode: class %q has id %d, want %d", c.Name, c.ID, i)
		}
		if c.Super >= int32(len(p.Classes)) || c.Super == c.ID {
			return fmt.Errorf("bytecode: class %q has invalid super %d", c.Name, c.Super)
		}
		for name, mid := range c.Methods {
			if mid < 0 || int(mid) >= len(p.Methods) {
				return fmt.Errorf("bytecode: class %q method %q has invalid id %d", c.Name, name, mid)
			}
		}
	}
	for i, m := range p.Methods {
		if m.ID != int32(i) {
			return fmt.Errorf("bytecode: method %q has id %d, want %d", m.Name, m.ID, i)
		}
		if m.ClassID >= int32(len(p.Classes)) {
			return fmt.Errorf("bytecode: method %q has invalid class %d", m.Name, m.ClassID)
		}
		if m.NArgs > m.NLocals {
			return fmt.Errorf("bytecode: method %q has NArgs %d > NLocals %d", m.Name, m.NArgs, m.NLocals)
		}
	}
	return nil
}

// Builtin exception class names. The assembler pre-declares these in every
// program (ids are not fixed; look them up by name).
const (
	ExNullPointer = "NullPointerException"
	// ExRemoteFault is raised when a *remote* reference (one whose home is
	// another node) is dereferenced. In the paper both cases raise
	// NullPointerException and the object manager disambiguates by looking
	// the reference up at home; our interpreter can tell null from remote
	// at raise time, so the injected object-fault handlers catch
	// RemoteAccessFault only and genuine application NPEs flow to user
	// code untouched. Behaviour is equivalent, the common path stays
	// zero-overhead, and the home round-trip for bug-NPEs is avoided.
	ExRemoteFault       = "RemoteAccessFault"
	ExInvalidState      = "InvalidStateException" // drives frame restoration (Fig 4)
	ExArithmetic        = "ArithmeticException"
	ExIndexOutOfBounds  = "IndexOutOfBoundsException"
	ExClassCast         = "ClassCastException"
	ExOutOfMemory       = "OutOfMemoryError"
	ExClassNotFound     = "ClassNotFoundException"
	ExIllegalState      = "IllegalStateException"
	ClassObject         = "Object"
	ClassString         = "String"
	ClassCapturedState  = "CapturedState" // carrier object used by restoration handlers
	ExceptionFieldMsg   = 0               // field 0 of every exception class: message string ref
	ExceptionFieldExtra = 1               // field 1: auxiliary payload (e.g. faulting stub ref bits)
)

// BuiltinClassNames lists the classes every program declares up front, in
// declaration order.
var BuiltinClassNames = []string{
	ClassObject,
	ClassString,
	ClassCapturedState,
	ExNullPointer,
	ExRemoteFault,
	ExInvalidState,
	ExArithmetic,
	ExIndexOutOfBounds,
	ExClassCast,
	ExOutOfMemory,
	ExClassNotFound,
	ExIllegalState,
}
