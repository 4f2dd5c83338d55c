package swap

import (
	"bytes"
	"errors"
	"testing"
)

func TestMetaRoundTrip(t *testing.T) {
	m := Meta{Generation: 7, Parent: 3, RulesSum: 0x01020304, ModelSum: 0xfeedf00d}
	enc := m.Encode()
	if len(enc) != EncodedMetaLen {
		t.Fatalf("encoded length %d, want %d", len(enc), EncodedMetaLen)
	}
	got, rest, err := DecodeMeta(append(enc, 0xaa, 0xbb))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: got %+v want %+v", got, m)
	}
	if !bytes.Equal(rest, []byte{0xaa, 0xbb}) {
		t.Fatalf("rest = %x", rest)
	}
}

func TestMetaDecodeFailsClosed(t *testing.T) {
	valid := Meta{Generation: 2, Parent: 1, RulesSum: 9}.Encode()

	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"truncated":     valid[:EncodedMetaLen-1],
		"empty":         nil,
		"bad_magic":     corrupt(func(b []byte) { b[0] ^= 0xff }),
		"bad_version":   corrupt(func(b []byte) { b[len(metaMagic)] ^= 0xff }),
		"flipped_field": corrupt(func(b []byte) { b[len(metaMagic)+4] ^= 0x01 }),
		"flipped_crc":   corrupt(func(b []byte) { b[EncodedMetaLen-1] ^= 0x01 }),
		"generation_0":  Meta{Generation: 0}.Encode(),
		"parent_not_lt": Meta{Generation: 3, Parent: 3}.Encode(),
		"parent_after":  Meta{Generation: 3, Parent: 9}.Encode(),
	}
	for name, data := range cases {
		if _, _, err := DecodeMeta(data); !errors.Is(err, ErrBadMeta) {
			t.Errorf("%s: err = %v, want ErrBadMeta", name, err)
		}
	}
}

func TestMetaBadVersionCRCStillChecked(t *testing.T) {
	// A re-CRC'd header with a future version must fail on version, proving
	// version skew is not silently decoded as garbage fields.
	b := Meta{Generation: 1}.Encode()
	b[len(metaMagic)]++ // the next version
	if _, _, err := DecodeMeta(b); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("err = %v", err)
	}
}
