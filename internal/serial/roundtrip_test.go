package serial_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/serial"
	"repro/internal/value"
)

// rtProgram builds a program with two classes (both with statics) so the
// round-trip table can exercise multi-class, allStatics-style captures.
func rtProgram() *bytecode.Program {
	pb := asm.NewProgram()
	c := pb.Class("Box", "")
	c.Field("v", value.KindInt)
	c.Static("count", value.KindInt)
	m := c.Method("get", true)
	m.Line().Load("this").GetF("Box", "v").RetV()
	d := pb.Class("Pair", "")
	d.Field("a", value.KindInt)
	d.Static("seen", value.KindInt)
	d.Static("last", value.KindRef)
	dm := d.Method("sum", true)
	dm.Line().Load("this").GetF("Pair", "a").RetV()
	mb := pb.Func("main", true)
	mb.Line().New("Box").CallV("get", 1).RetV()
	return pb.MustBuild()
}

// diffCapturedState compares two states field by field, treating nil and
// empty slices as equal (the decoder returns nil for zero-length
// sequences). It returns a description of the first mismatch, or "".
func diffCapturedState(a, b *serial.CapturedState) string {
	if a.HomeNode != b.HomeNode {
		return fmt.Sprintf("HomeNode %d != %d", a.HomeNode, b.HomeNode)
	}
	if a.ThreadID != b.ThreadID {
		return fmt.Sprintf("ThreadID %d != %d", a.ThreadID, b.ThreadID)
	}
	if len(a.Frames) != len(b.Frames) {
		return fmt.Sprintf("frame count %d != %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if d := diffFrame(a.Frames[i], b.Frames[i]); d != "" {
			return fmt.Sprintf("frame %d: %s", i, d)
		}
	}
	if len(a.Statics) != len(b.Statics) {
		return fmt.Sprintf("statics count %d != %d", len(a.Statics), len(b.Statics))
	}
	for i := range a.Statics {
		if d := diffStatics(a.Statics[i], b.Statics[i]); d != "" {
			return fmt.Sprintf("statics %d: %s", i, d)
		}
	}
	if a.Hops != b.Hops {
		return fmt.Sprintf("hops %d != %d", a.Hops, b.Hops)
	}
	if len(a.Visited) != len(b.Visited) {
		return fmt.Sprintf("visited count %d != %d", len(a.Visited), len(b.Visited))
	}
	for i := range a.Visited {
		if a.Visited[i] != b.Visited[i] {
			return fmt.Sprintf("visit %d: %+v != %+v", i, a.Visited[i], b.Visited[i])
		}
	}
	return ""
}

func diffFrame(a, b serial.CapturedFrame) string {
	if a.MethodID != b.MethodID {
		return fmt.Sprintf("method %d != %d", a.MethodID, b.MethodID)
	}
	if a.PC != b.PC {
		return fmt.Sprintf("pc %d != %d", a.PC, b.PC)
	}
	if a.ResumePC != b.ResumePC {
		return fmt.Sprintf("resume pc %d != %d", a.ResumePC, b.ResumePC)
	}
	if a.Pinned != b.Pinned {
		return fmt.Sprintf("pinned %v != %v", a.Pinned, b.Pinned)
	}
	if len(a.Locals) != len(b.Locals) {
		return fmt.Sprintf("locals count %d != %d", len(a.Locals), len(b.Locals))
	}
	for i := range a.Locals {
		if !a.Locals[i].Equal(b.Locals[i]) {
			return fmt.Sprintf("local %d: %v != %v", i, a.Locals[i], b.Locals[i])
		}
	}
	return ""
}

func diffStatics(a, b serial.ClassStatics) string {
	if a.ClassID != b.ClassID {
		return fmt.Sprintf("class %d != %d", a.ClassID, b.ClassID)
	}
	if len(a.Values) != len(b.Values) {
		return fmt.Sprintf("values count %d != %d", len(a.Values), len(b.Values))
	}
	for i := range a.Values {
		if !a.Values[i].Equal(b.Values[i]) {
			return fmt.Sprintf("value %d: %v != %v", i, a.Values[i], b.Values[i])
		}
	}
	return ""
}

// TestCapturedStateRoundTripTable pins the encode/decode edge cases the
// migration fast path leans on: zero-frame states (residual-only
// captures), pinned-frame-only tails, allStatics-style multi-class
// captures, and the trailing alloc-hint/hops/visit metadata. Every case
// must survive both codecs with a field-by-field diff.
func TestCapturedStateRoundTripTable(t *testing.T) {
	prog := rtProgram()
	mainID := prog.MethodByName("main")
	getID := prog.MethodByName("Box.get")
	if getID < 0 {
		getID = prog.MethodByName("get")
	}
	boxID := prog.ClassByName("Box")
	pairID := prog.ClassByName("Pair")

	cases := []struct {
		name string
		cs   *serial.CapturedState
	}{
		{
			name: "empty",
			cs:   &serial.CapturedState{HomeNode: 1, ThreadID: 2},
		},
		{
			// A residual-only capture ships statics but no frames: the
			// frame loop must encode a clean zero count, not choke.
			name: "zero frames with statics",
			cs: &serial.CapturedState{
				HomeNode: 1, ThreadID: 3,
				Statics: []serial.ClassStatics{
					{ClassID: boxID, Values: []value.Value{value.Int(7)}},
				},
			},
		},
		{
			// A tail whose every frame is pinned: the pinned bit must
			// round-trip per frame, not get lost after the first.
			name: "pinned-only tail",
			cs: &serial.CapturedState{
				HomeNode: 2, ThreadID: 4,
				Frames: []serial.CapturedFrame{
					{MethodID: mainID, PC: 0, ResumePC: 1, Pinned: true,
						Locals: []value.Value{value.Int(1)}},
					{MethodID: getID, PC: 0, ResumePC: 0, Pinned: true,
						Locals: []value.Value{value.Null(), value.Float(2.5)}},
				},
			},
		},
		{
			name: "frame with no locals",
			cs: &serial.CapturedState{
				HomeNode: 1, ThreadID: 5,
				Frames: []serial.CapturedFrame{{MethodID: mainID, PC: 0, ResumePC: 0}},
			},
		},
		{
			// allStatics-style: every class's statics ride along, some with
			// refs, plus the eager-alloc hints the device restore consumes.
			name: "all statics with hints",
			cs: &serial.CapturedState{
				HomeNode: 3, ThreadID: 6,
				Frames: []serial.CapturedFrame{{MethodID: mainID, PC: 0, ResumePC: 0,
					Locals: []value.Value{value.Int(-9), value.RefVal(value.MakeRef(3, 12))}}},
				Statics: []serial.ClassStatics{
					{ClassID: boxID, Values: []value.Value{value.Int(41)}},
					{ClassID: pairID, Values: []value.Value{value.Int(8), value.RefVal(value.MakeRef(1, 2))}},
				},
				Hops: 3,
				Visited: []serial.Visit{
					{Node: 1, AgeNanos: 1_000_000},
					{Node: 2, AgeNanos: 500},
				},
			},
		},
		{
			name: "empty statics values",
			cs: &serial.CapturedState{
				HomeNode: 1, ThreadID: 7,
				Statics: []serial.ClassStatics{{ClassID: boxID}},
			},
		},
	}

	for _, tc := range cases {
		for _, codec := range []serial.Codec{serial.Fast, serial.JavaSer} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, codec), func(t *testing.T) {
				buf := serial.EncodeCapturedState(tc.cs, prog, codec)
				got, err := serial.DecodeCapturedState(buf, prog, codec)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffCapturedState(tc.cs, got); d != "" {
					t.Fatalf("round-trip mismatch: %s", d)
				}
				// Determinism: re-encoding the same state must reproduce
				// the same bytes — the delta path's content hashes depend
				// on it.
				if again := serial.EncodeCapturedState(tc.cs, prog, codec); !bytes.Equal(buf, again) {
					t.Fatal("encoding is not deterministic")
				}
			})
		}
	}
}

// TestFrameUnitRoundTrip: the standalone frame unit (what the delta path
// hashes) must round-trip and must encode byte-identically to the frame's
// inline form inside a CapturedState.
func TestFrameUnitRoundTrip(t *testing.T) {
	prog := rtProgram()
	mainID := prog.MethodByName("main")
	f := serial.CapturedFrame{
		MethodID: mainID, PC: 0, ResumePC: 1, Pinned: true,
		Locals: []value.Value{value.Int(11), value.Float(0.5), value.RefVal(value.MakeRef(2, 3))},
	}
	for _, codec := range []serial.Codec{serial.Fast, serial.JavaSer} {
		unit := serial.EncodeFrame(&f, prog, codec)
		got, err := serial.DecodeFrame(unit, prog, codec)
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		if d := diffFrame(f, got); d != "" {
			t.Fatalf("%v: %s", codec, d)
		}
		if h1, h2 := serial.Hash64(unit), serial.Hash64(serial.EncodeFrame(&f, prog, codec)); h1 != h2 {
			t.Fatalf("%v: hash not stable", codec)
		}
	}
	// A one-bit change in a local must change the unit hash.
	g := f
	g.Locals = append([]value.Value(nil), f.Locals...)
	g.Locals[0] = value.Int(12)
	if serial.Hash64(serial.EncodeFrame(&f, prog, serial.Fast)) ==
		serial.Hash64(serial.EncodeFrame(&g, prog, serial.Fast)) {
		t.Fatal("distinct frames hashed equal")
	}
}

// TestClassStaticsUnitRoundTrip mirrors TestFrameUnitRoundTrip for the
// statics unit.
func TestClassStaticsUnitRoundTrip(t *testing.T) {
	prog := rtProgram()
	s := serial.ClassStatics{
		ClassID: prog.ClassByName("Pair"),
		Values:  []value.Value{value.Int(-3), value.RefVal(value.MakeRef(1, 9))},
	}
	for _, codec := range []serial.Codec{serial.Fast, serial.JavaSer} {
		unit := serial.EncodeClassStatics(&s, prog, codec)
		got, err := serial.DecodeClassStatics(unit, prog, codec)
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		if d := diffStatics(s, got); d != "" {
			t.Fatalf("%v: %s", codec, d)
		}
	}
}
