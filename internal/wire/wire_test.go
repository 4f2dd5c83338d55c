package wire

import (
	"errors"
	"reflect"
	"testing"
)

func TestBoolRoundTrip(t *testing.T) {
	b := AppendBool(AppendBool(nil, false), true)
	if !reflect.DeepEqual(b, []byte{0, 1}) {
		t.Fatalf("AppendBool wrote %v, want [0 1]", b)
	}
	r := NewReader(b)
	if r.Bool() || !r.Bool() || r.Err() != nil || r.Len() != 0 {
		t.Fatalf("read back wrong bools (err %v, %d bytes left)", r.Err(), r.Len())
	}
}

func TestBoolRejectsNonCanonicalByte(t *testing.T) {
	for _, v := range []byte{2, 0x80, 0xff} {
		r := NewReader([]byte{v, 1})
		if r.Bool() {
			t.Fatalf("byte %#x read as true", v)
		}
		if !errors.Is(r.Err(), ErrBool) {
			t.Fatalf("byte %#x: err %v, want ErrBool", v, r.Err())
		}
		// The error latches: later reads return zero values.
		if r.Bool() || r.U8() != 0 || !errors.Is(r.Err(), ErrBool) {
			t.Fatalf("byte %#x: read after the error was not zero, or the error changed to %v", v, r.Err())
		}
	}
}

func TestBoolsRoundTripAndReject(t *testing.T) {
	want := []bool{true, false, false, true}
	b := AppendBools(nil, want)
	r := NewReader(b)
	if got := r.Bools(); !reflect.DeepEqual(got, want) || r.Err() != nil || r.Len() != 0 {
		t.Fatalf("Bools = %v (err %v, %d bytes left), want %v", got, r.Err(), r.Len(), want)
	}
	if r := NewReader(AppendBools(nil, nil)); r.Bools() != nil || r.Err() != nil {
		t.Fatalf("empty Bools: err %v", r.Err())
	}

	bad := append([]byte(nil), b...)
	bad[4+2] = 2 // the third element's byte, after the u32 count
	r = NewReader(bad)
	r.Bools()
	if !errors.Is(r.Err(), ErrBool) {
		t.Fatalf("Bools with a byte of 2: err %v, want ErrBool", r.Err())
	}
}

func TestBoolTruncation(t *testing.T) {
	r := NewReader(nil)
	if r.Bool() || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Bool on empty input: err %v, want ErrTruncated", r.Err())
	}
	// A count larger than the bytes that remain fails before allocating.
	b := AppendBools(nil, []bool{true, true, true})
	r = NewReader(b[:len(b)-1])
	if got := r.Bools(); got != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("truncated Bools = %v, err %v, want nil and ErrTruncated", got, r.Err())
	}
	r = NewReader(b[:3])
	if got := r.Bools(); got != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Bools with a cut count = %v, err %v, want nil and ErrTruncated", got, r.Err())
	}
}
