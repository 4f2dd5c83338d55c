// Package wire is the minimal binary codec shared by the durable-state
// formats (flows/ml arena serialization, core proxy snapshots, the durable
// WAL). It exists so every layer frames fields identically — little-endian
// fixed-width integers, length-prefixed strings and byte blocks — without
// importing anything above the standard library, keeping it importable from
// flows, ml, obs, core, and durable alike without cycles.
//
// Appends grow a caller-owned []byte; reads go through a Reader that
// fails soft: the first malformed field latches an error, every later read
// returns a zero value, and the caller checks Err once at the end. That
// shape makes decoders safe to point fuzzers at — no panics on truncated or
// hostile input, and no partial-read ambiguity.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrTruncated marks a read past the end of the buffer or a length prefix
// larger than the bytes that remain.
var ErrTruncated = errors.New("wire: truncated input")

// ErrBool marks a bool byte that is neither 0 nor 1, which AppendBool
// never writes.
var ErrBool = errors.New("wire: bool byte is neither 0 nor 1")

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU16 appends a little-endian uint16.
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendI64 appends an int64 as its two's-complement uint64 image.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendF64 appends a float64 as its IEEE-754 bit image.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendBool appends a bool as one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a u32 length prefix followed by the bytes.
func AppendBytes(b, v []byte) []byte {
	b = AppendU32(b, uint32(len(v)))
	return append(b, v...)
}

// BeginBytes starts an AppendBytes-framed block that is encoded in place:
// it reserves the u32 length prefix and returns its offset, which EndBytes
// patches once the block's bytes have been appended after it. The result is
// byte-identical to AppendBytes over the same block, without encoding the
// block into a separate slice first.
func BeginBytes(b []byte) ([]byte, int) { return AppendU32(b, 0), len(b) }

// EndBytes closes the block BeginBytes opened at offset at.
func EndBytes(b []byte, at int) []byte {
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// AppendString appends a u32 length prefix followed by the string bytes.
func AppendString(b []byte, v string) []byte {
	b = AppendU32(b, uint32(len(v)))
	return append(b, v...)
}

// AppendI64s appends a u32 count followed by each element.
func AppendI64s(b []byte, vs []int64) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendI64(b, v)
	}
	return b
}

// AppendF64s appends a u32 count followed by each element.
func AppendF64s(b []byte, vs []float64) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendF64(b, v)
	}
	return b
}

// AppendInts appends a u32 count followed by each element as an int64.
func AppendInts(b []byte, vs []int) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendI64(b, int64(v))
	}
	return b
}

// AppendBools appends a u32 count followed by one byte per element.
func AppendBools(b []byte, vs []bool) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendBool(b, v)
	}
	return b
}

// Reader decodes a wire buffer with fail-soft error latching.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps a buffer for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len reports how many bytes remain.
func (r *Reader) Len() int { return len(r.b) }

// Rest returns the unread remainder of the buffer.
func (r *Reader) Rest() []byte { return r.b }

// Reset points the reader at a new buffer, keeping any latched error.
// Composite decoders use it to resume after handing Rest to a sub-codec
// that returns its own remainder.
func (r *Reader) Reset(b []byte) {
	if r.err == nil {
		r.b = b
	}
}

// Take consumes and returns the next n raw bytes (still aliasing the
// underlying buffer), or nil with ErrTruncated latched when fewer remain.
func (r *Reader) Take(n int) []byte { return r.take(n) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = ErrTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte as a bool. Only the two bytes AppendBool writes are
// accepted, so every decoded bool re-encodes to the byte it came from; any
// other byte latches ErrBool.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.err = ErrBool
	}
	return v == 1
}

// count reads a u32 length prefix and validates it against the bytes that
// remain at elemSize bytes per element, so a hostile length cannot force a
// huge allocation before the truncation is noticed.
func (r *Reader) count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if elemSize > 0 && n > len(r.b)/elemSize {
		r.err = ErrTruncated
		return 0
	}
	return n
}

// Bytes reads a u32-length-prefixed byte block (copied out of the buffer).
func (r *Reader) Bytes() []byte {
	n := r.count(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a u32-length-prefixed string.
func (r *Reader) String() string {
	n := r.count(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// I64s reads a u32-counted int64 slice (nil when empty).
func (r *Reader) I64s() []int64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// F64s reads a u32-counted float64 slice (nil when empty).
func (r *Reader) F64s() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// Ints reads a u32-counted int slice (nil when empty).
func (r *Reader) Ints() []int {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.I64())
	}
	return out
}

// Bools reads a u32-counted bool slice (nil when empty).
func (r *Reader) Bools() []bool {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Bool()
	}
	return out
}
