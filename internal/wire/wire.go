// Package wire provides the low-level binary encoding primitives shared by
// every codec in the system (state capture, object shipping, class transfer,
// network framing). It is deliberately tiny and allocation-conscious: the
// fast path appends to a caller-owned buffer and the reader is a cursor over
// a byte slice.
//
// Two integer encodings are provided. Uvarint/Varint are the compact
// variable-length forms used by the fast codec. Fixed64 is used where the
// "javaser" codec wants to mimic Java serialization's fixed-width fields.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShortBuffer is returned when a Reader runs out of bytes mid-value.
var ErrShortBuffer = errors.New("wire: short buffer")

// ErrCorrupt is returned when a decoded value is structurally invalid
// (e.g. a length prefix larger than the remaining payload).
var ErrCorrupt = errors.New("wire: corrupt data")

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded contents. The slice aliases the Writer's
// internal buffer and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer for reuse, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uvarint appends an unsigned variable-length integer.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a signed variable-length integer (zig-zag encoded).
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Fixed64 appends a fixed-width little-endian 64-bit value.
func (w *Writer) Fixed64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Fixed32 appends a fixed-width little-endian 32-bit value.
func (w *Writer) Fixed32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Float64 appends a float64 by bit pattern.
func (w *Writer) Float64(f float64) { w.Fixed64(math.Float64bits(f)) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes without a length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Int64Slice appends a length-prefixed slice of varints.
func (w *Writer) Int64Slice(vs []int64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Varint(v)
	}
}

// Float64Slice appends a length-prefixed slice of fixed-width floats.
func (w *Writer) Float64Slice(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Float64(v)
	}
}

// Uint64Slice appends a length-prefixed slice of uvarints.
func (w *Writer) Uint64Slice(vs []uint64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(v)
	}
}

// Reader is a cursor over an encoded message.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first error encountered, if any. All getters return zero
// values after an error, so callers may decode a whole message and check
// Err once at the end.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Pos returns the current cursor offset.
func (r *Reader) Pos() int { return r.pos }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned variable-length integer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrShortBuffer)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed variable-length integer.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrShortBuffer)
		return 0
	}
	r.pos += n
	return v
}

// Fixed64 reads a fixed-width 64-bit value.
func (r *Reader) Fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 8 {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// Fixed32 reads a fixed-width 32-bit value.
func (r *Reader) Fixed32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 4 {
		r.fail(ErrShortBuffer)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Remaining() < 1 {
		r.fail(ErrShortBuffer)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Float64 reads a float64 by bit pattern.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Fixed64()) }

// String reads a length-prefixed UTF-8 string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrCorrupt)
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// Blob reads a length-prefixed byte slice. The returned slice is a copy.
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrCorrupt)
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return b
}

// BlobView reads a length-prefixed byte slice without copying. The returned
// slice aliases the Reader's buffer.
func (r *Reader) BlobView() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail(ErrCorrupt)
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// Int64Slice reads a length-prefixed slice of varints.
func (r *Reader) Int64Slice() []int64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) { // each element is at least one byte
		r.fail(ErrCorrupt)
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.Varint()
	}
	return vs
}

// Float64Slice reads a length-prefixed slice of fixed-width floats.
func (r *Reader) Float64Slice() []float64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining())/8 { // n*8 would wrap for n ≥ 2⁶¹
		r.fail(ErrCorrupt)
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.Float64()
	}
	return vs
}

// Uint64Slice reads a length-prefixed slice of uvarints.
func (r *Reader) Uint64Slice() []uint64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrCorrupt)
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.Uvarint()
	}
	return vs
}

// Expect consumes a single byte and fails the reader if it does not match.
// Used for message-kind tags and codec magic bytes.
func (r *Reader) Expect(b byte) {
	got := r.Byte()
	if r.err == nil && got != b {
		r.fail(fmt.Errorf("%w: expected tag 0x%02x, got 0x%02x", ErrCorrupt, b, got))
	}
}
