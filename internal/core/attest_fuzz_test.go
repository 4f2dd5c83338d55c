package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	mrand "math/rand"
	"strings"
	"testing"
	"time"

	"fiat/internal/keystore"
	"fiat/internal/sensors"
)

// fuzzStore builds the deterministic keystore the fuzz corpus was encoded
// under: a fixed pairing key imported directly, so committed seed inputs
// keep verifying across runs and machines.
func fuzzStore(tb testing.TB) *keystore.Store {
	tb.Helper()
	ks, err := keystore.New(mrand.New(mrand.NewSource(0xF1A7)))
	if err != nil {
		tb.Fatal(err)
	}
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	if err := ks.ImportKey(keystore.PairingAlias, key); err != nil {
		tb.Fatal(err)
	}
	return ks
}

// fuzzAttestation is the reference valid payload the corpus derives from.
func fuzzAttestation(tb testing.TB, ks *keystore.Store) []byte {
	tb.Helper()
	feats := make([]float64, sensors.FeatureDim)
	for i := range feats {
		feats[i] = float64(i) * 0.25
	}
	payload, err := EncodeAttestation(&Attestation{
		Device:   "plug",
		At:       time.Unix(1_700_000_000, 123).UTC(),
		Features: feats,
	}, ks)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// FuzzDecodeAttestation hardens the attestation codec against the
// adversarial corpus's frame manipulations: truncation, bit flips in body
// and MAC, and time-shifted re-encodings. Committed seeds under
// testdata/fuzz mirror the internal/adversary attack catalog inputs.
//
// Each input is decoded twice: as sent, and as a body with a valid MAC
// under the corpus key appended, which takes the parser past VerifyMAC on
// every input instead of almost none.
//
// Invariants:
//  1. Decode never panics, whatever the bytes.
//  2. Decode agrees with decodeAttestationReference on the error and on
//     every field.
//  3. A successful decode of a payload without trailing bytes implies a
//     full-dimension feature vector and a byte-identical re-encode — i.e.
//     acceptance means the payload is exactly what the pairing key would
//     have produced, no malleability.
func FuzzDecodeAttestation(f *testing.F) {
	ks := fuzzStore(f)
	valid := fuzzAttestation(f, ks)

	// Seeds derived from the attack corpus: the pristine payload, replay
	// (same bytes — decode must accept; anti-replay lives in the guard, not
	// the codec), truncations at field boundaries, bit flips in magic,
	// version, name length, timestamp, features, and MAC, and a time-shifted
	// legitimate re-encoding.
	f.Add(valid)
	f.Add(valid[:len(valid)-32])  // MAC stripped
	f.Add(valid[:len(valid)/2])   // torn mid-features
	f.Add(valid[:4+1+1])          // header only
	f.Add([]byte{})               // empty
	f.Add(bytes.Repeat(valid, 2)) // doubled — trailing garbage breaks the MAC
	flip := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x80
		return b
	}
	f.Add(flip(0))              // magic
	f.Add(flip(4))              // version
	f.Add(flip(5))              // name length
	f.Add(flip(10))             // timestamp
	f.Add(flip(20))             // features
	f.Add(flip(len(valid) - 1)) // MAC tail
	f.Add(nameOverrun(valid))   // MACed, the name runs the features one byte past the body
	// Re-encode with a shifted timestamp: valid MAC, different At — the
	// codec accepts it; staleness is the replay guard's judgment.
	ts, err := EncodeAttestation(&Attestation{
		Device: "plug", At: time.Unix(1_700_003_600, 0).UTC(),
		Features: make([]float64, sensors.FeatureDim),
	}, ks)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ts)

	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecodeAttestation(t, ks, payload, true)
		mac, err := ks.MAC(keystore.PairingAlias, payload)
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeAttestation(t, ks, append(payload[:len(payload):len(payload)], mac...), false)
	})
}

// nameOverrun returns valid's body, MAC stripped, with the name length
// one byte longer than the name: in the MACed mode it verifies, and its
// last feature then runs one byte past the end.
func nameOverrun(valid []byte) []byte {
	b := append([]byte(nil), valid[:len(valid)-attestMACLen]...)
	b[5]++
	return b
}

// checkDecodeAttestation decodes payload, compares the outcome with the
// reference decoder, and for an accepted payload checks it re-encodes to
// itself. A MACed fuzz body may carry bytes after the features, which the
// decoder ignores, so exact re-encoding is only required when wantExact.
func checkDecodeAttestation(t *testing.T, ks *keystore.Store, payload []byte, wantExact bool) {
	t.Helper()
	a, err := DecodeAttestation(payload, ks)
	ref, refErr := decodeAttestationReference(payload, ks)
	if !errors.Is(err, refErr) || (err == nil) != (refErr == nil) {
		t.Fatalf("decode error %v, reference error %v", err, refErr)
	}
	if !sameAttestation(a, ref) {
		t.Fatalf("decode = %+v, reference = %+v", a, ref)
	}
	if err != nil {
		if a != nil {
			t.Fatalf("error %v with non-nil attestation", err)
		}
		return
	}
	if len(a.Features) != sensors.FeatureDim {
		t.Fatalf("accepted attestation with %d features", len(a.Features))
	}
	re, err := EncodeAttestation(a, ks)
	if err != nil {
		t.Fatalf("accepted attestation does not re-encode: %v", err)
	}
	if wantExact && !bytes.Equal(re, payload) {
		t.Fatalf("malleable codec: accepted %d bytes that re-encode to %d different bytes", len(payload), len(re))
	}
	// Trailing bytes aside, the re-encoded body is the accepted one.
	body := re[:len(re)-attestMACLen]
	if !bytes.HasPrefix(payload, body) {
		t.Fatalf("accepted body does not re-encode to itself")
	}
}

// sameAttestation compares two decodes field by field, features by their
// bits so NaNs compare equal.
func sameAttestation(a, b *Attestation) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Device != b.Device || a.At != b.At || len(a.Features) != len(b.Features) {
		return false
	}
	for i := range a.Features {
		if math.Float64bits(a.Features[i]) != math.Float64bits(b.Features[i]) {
			return false
		}
	}
	return true
}

// decodeAttestationReference is the reflection-based bytes.Reader
// decoder DecodeAttestationAliases replaced, kept as the oracle for the
// slicing one.
func decodeAttestationReference(payload []byte, ks *keystore.Store) (*Attestation, error) {
	const macLen = 32
	minLen := 4 + 1 + 1 + 8 + 8*sensors.FeatureDim + macLen
	if len(payload) < minLen {
		return nil, ErrBadAttestation
	}
	body, mac := payload[:len(payload)-macLen], payload[len(payload)-macLen:]
	if !ks.VerifyMAC(keystore.PairingAlias, body, mac) {
		return nil, ErrBadMAC
	}
	r := bytes.NewReader(body)
	var magic uint32
	if err := binary.Read(r, binary.BigEndian, &magic); err != nil || magic != attestMagic {
		return nil, ErrBadAttestation
	}
	ver, _ := r.ReadByte()
	if ver != attestVersion {
		return nil, ErrBadAttestation
	}
	nameLen, _ := r.ReadByte()
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, ErrBadAttestation
	}
	var nanos int64
	if err := binary.Read(r, binary.BigEndian, &nanos); err != nil {
		return nil, ErrBadAttestation
	}
	feats := make([]float64, sensors.FeatureDim)
	for i := range feats {
		var b uint64
		if err := binary.Read(r, binary.BigEndian, &b); err != nil {
			return nil, ErrBadAttestation
		}
		feats[i] = math.Float64frombits(b)
	}
	return &Attestation{Device: string(name), At: time.Unix(0, nanos).UTC(), Features: feats}, nil
}

// encodeAttestationReference is the reflection-based bytes.Buffer
// encoder EncodeAttestation replaced, kept as its byte-for-byte oracle.
func encodeAttestationReference(a *Attestation, ks *keystore.Store) ([]byte, error) {
	if len(a.Features) != sensors.FeatureDim {
		return nil, ErrBadAttestation
	}
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(attestMagic))
	buf.WriteByte(attestVersion)
	name := []byte(a.Device)
	if len(name) > 255 {
		return nil, ErrBadAttestation
	}
	buf.WriteByte(byte(len(name)))
	buf.Write(name)
	binary.Write(&buf, binary.BigEndian, a.At.UnixNano())
	for _, f := range a.Features {
		binary.Write(&buf, binary.BigEndian, math.Float64bits(f))
	}
	mac, err := ks.MAC(keystore.PairingAlias, buf.Bytes())
	if err != nil {
		return nil, err
	}
	buf.Write(mac)
	return buf.Bytes(), nil
}

// TestEncodeAttestationMatchesReference pins the appending encoder to the
// reflection-based one byte for byte, across name lengths up to the 255
// the length byte allows, odd timestamps and non-finite features, and
// checks both reject a 256-byte name.
func TestEncodeAttestationMatchesReference(t *testing.T) {
	ks := fuzzStore(t)
	feats := make([]float64, sensors.FeatureDim)
	for i := range feats {
		feats[i] = float64(i)*-1.5 + 0.1
	}
	feats[1], feats[2], feats[3] = math.NaN(), math.Inf(-1), math.Copysign(0, -1)
	for _, tc := range []struct {
		device string
		at     time.Time
	}{
		{"", time.Unix(0, 0)},
		{"plug", time.Unix(1_700_000_000, 123)},
		{"Wyze Cam v3 — salon", time.Unix(-5, 999_999_999)},
		{strings.Repeat("d", 255), time.Unix(1<<32, 1)},
	} {
		a := &Attestation{Device: tc.device, At: tc.at, Features: feats}
		got, err := EncodeAttestation(a, ks)
		if err != nil {
			t.Fatalf("%d-byte name: %v", len(tc.device), err)
		}
		want, err := encodeAttestationReference(a, ks)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte name: encoding differs from the reference\n got %x\nwant %x", len(tc.device), got, want)
		}
		back, err := DecodeAttestation(got, ks)
		if err != nil || back.Device != tc.device || !back.At.Equal(tc.at) {
			t.Fatalf("%d-byte name: round trip = %+v, %v", len(tc.device), back, err)
		}
	}
	long := &Attestation{Device: strings.Repeat("d", 256), Features: feats}
	if _, err := EncodeAttestation(long, ks); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("256-byte name: err = %v, want ErrBadAttestation", err)
	}
	if _, err := encodeAttestationReference(long, ks); !errors.Is(err, ErrBadAttestation) {
		t.Fatalf("reference accepted a 256-byte name: %v", err)
	}
}
