package wire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(64)
	w.Uvarint(0)
	w.Uvarint(1 << 60)
	w.Varint(-12345)
	w.Fixed64(0xdeadbeefcafebabe)
	w.Fixed32(0x12345678)
	w.Byte(0x7f)
	w.Bool(true)
	w.Bool(false)
	w.Float64(math.Pi)
	w.String("héllo")
	w.Blob([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != 1<<60 {
		t.Errorf("Uvarint = %d, want %d", got, uint64(1)<<60)
	}
	if got := r.Varint(); got != -12345 {
		t.Errorf("Varint = %d, want -12345", got)
	}
	if got := r.Fixed64(); got != 0xdeadbeefcafebabe {
		t.Errorf("Fixed64 = %x", got)
	}
	if got := r.Fixed32(); got != 0x12345678 {
		t.Errorf("Fixed32 = %x", got)
	}
	if got := r.Byte(); got != 0x7f {
		t.Errorf("Byte = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.Float64(); got != math.Pi {
		t.Errorf("Float64 = %v", got)
	}
	if got := r.String(); got != "héllo" {
		t.Errorf("String = %q", got)
	}
	b := r.Blob()
	if len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Errorf("Blob = %v", b)
	}
	if r.Err() != nil {
		t.Fatalf("Err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestShortBuffer(t *testing.T) {
	r := NewReader([]byte{0x80}) // incomplete varint
	r.Uvarint()
	if r.Err() == nil {
		t.Fatal("expected error on truncated uvarint")
	}
	// After an error, all getters return zero values without panicking.
	if r.Fixed64() != 0 || r.String() != "" || r.Blob() != nil {
		t.Error("post-error reads should be zero values")
	}
}

func TestCorruptLengthPrefix(t *testing.T) {
	w := NewWriter(8)
	w.Uvarint(1000) // claims 1000 bytes follow
	w.Raw([]byte("abc"))
	r := NewReader(w.Bytes())
	if r.String() != "" || r.Err() == nil {
		t.Fatal("expected corrupt-length error")
	}
}

// A slice count whose byte size overflows uint64 must fail as corrupt,
// not wrap past the length check and reach make.
func TestFloat64SliceHugeCount(t *testing.T) {
	for _, n := range []uint64{1 << 61, 1<<61 + 1, math.MaxUint64} {
		w := NewWriter(16)
		w.Uvarint(n)
		w.Raw(make([]byte, 8))
		r := NewReader(w.Bytes())
		if vs := r.Float64Slice(); vs != nil || r.Err() == nil {
			t.Errorf("count %d: got %d floats, err %v; want corrupt", n, len(vs), r.Err())
		}
	}
}

func TestExpect(t *testing.T) {
	w := NewWriter(2)
	w.Byte(0x42)
	r := NewReader(w.Bytes())
	r.Expect(0x42)
	if r.Err() != nil {
		t.Fatalf("Expect matched tag: %v", r.Err())
	}
	r2 := NewReader(w.Bytes())
	r2.Expect(0x43)
	if r2.Err() == nil {
		t.Fatal("Expect should fail on mismatched tag")
	}
}

func TestSliceRoundTrips(t *testing.T) {
	w := NewWriter(64)
	is := []int64{-5, 0, 7, 1 << 40}
	fs := []float64{0, -1.5, math.Inf(1)}
	us := []uint64{0, 9, 1 << 50}
	w.Int64Slice(is)
	w.Float64Slice(fs)
	w.Uint64Slice(us)
	r := NewReader(w.Bytes())
	gi, gf, gu := r.Int64Slice(), r.Float64Slice(), r.Uint64Slice()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	for i := range is {
		if gi[i] != is[i] {
			t.Errorf("int64[%d] = %d, want %d", i, gi[i], is[i])
		}
	}
	for i := range fs {
		if gf[i] != fs[i] {
			t.Errorf("float64[%d] = %v, want %v", i, gf[i], fs[i])
		}
	}
	for i := range us {
		if gu[i] != us[i] {
			t.Errorf("uint64[%d] = %d, want %d", i, gu[i], us[i])
		}
	}
}

func TestQuickVarintRoundTrip(t *testing.T) {
	f := func(v int64, u uint64, s string, blob []byte) bool {
		w := NewWriter(32)
		w.Varint(v)
		w.Uvarint(u)
		w.String(s)
		w.Blob(blob)
		r := NewReader(w.Bytes())
		gv, gu, gs, gb := r.Varint(), r.Uvarint(), r.String(), r.Blob()
		if r.Err() != nil || gv != v || gu != u || gs != s {
			return false
		}
		if len(gb) != len(blob) {
			return false
		}
		for i := range blob {
			if gb[i] != blob[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBlobViewAliases(t *testing.T) {
	w := NewWriter(16)
	w.Blob([]byte{9, 8, 7})
	r := NewReader(w.Bytes())
	v := r.BlobView()
	if len(v) != 3 || v[1] != 8 {
		t.Fatalf("BlobView = %v", v)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.Uvarint(7)
	if w.Len() == 0 {
		t.Fatal("Len should be non-zero")
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("Reset should truncate")
	}
}
