package ml

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestCompiledModelRoundTripAllFamilies: for every family, with and without
// a folded scaler, encode → decode → re-encode must be byte-identical and
// the decoded model must infer bit-identically to the original on a probe
// sweep (in-distribution and wild rows alike).
func TestCompiledModelRoundTripAllFamilies(t *testing.T) {
	for _, withScaler := range []bool{true, false} {
		rng := rand.New(rand.NewSource(23))
		X, y := compileDataset(rng, 90, 12, 3)
		var scaler *StandardScaler
		Xs := X
		if withScaler {
			scaler = &StandardScaler{}
			var err error
			Xs, err = scaler.FitTransform(X)
			if err != nil {
				t.Fatal(err)
			}
		}
		for name, clf := range compileFamilies() {
			if err := clf.Fit(Xs, y); err != nil {
				t.Fatalf("%s: fit: %v", name, err)
			}
			cm, err := Compile(clf, scaler)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			enc, err := EncodeCompiled(cm)
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			dec, rest, err := DecodeCompiled(enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if len(rest) != 0 {
				t.Fatalf("%s: %d trailing bytes", name, len(rest))
			}
			enc2, err := EncodeCompiled(dec)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", name, err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: re-encode differs (scaler=%v)", name, withScaler)
			}
			s1, err := CompiledChecksum(cm)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := CompiledChecksum(dec)
			if err != nil {
				t.Fatal(err)
			}
			if s1 != s2 {
				t.Fatalf("%s: checksum differs after round trip", name)
			}
			for i := 0; i < 200; i++ {
				row := make([]float64, 12)
				for j := range row {
					row[j] = rng.NormFloat64()*float64(1+i%5) + float64(i%4)
				}
				if got, want := dec.Infer(row), cm.Infer(row); got != want {
					t.Fatalf("%s: probe %d: decoded %d, original %d (scaler=%v)", name, i, got, want, withScaler)
				}
			}
		}
	}
}

// TestCompiledModelRoundTripUnfitted: the degenerate predict-class-0 models
// must survive the trip too — recovery may snapshot a proxy whose
// classifier was compiled from an unfitted estimator.
func TestCompiledModelRoundTripUnfitted(t *testing.T) {
	for name, clf := range compileFamilies() {
		cm, err := Compile(clf, nil)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		enc, err := EncodeCompiled(cm)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		dec, _, err := DecodeCompiled(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		probe := make([]float64, 8)
		if got, want := dec.Infer(probe), cm.Infer(probe); got != want {
			t.Fatalf("%s: unfitted probe: decoded %d, original %d", name, got, want)
		}
	}
}

func TestCompiledChecksumDetectsModelSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := compileDataset(rng, 60, 8, 3)
	a := &BernoulliNB{}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	b := &BernoulliNB{}
	X2, y2 := compileDataset(rng, 60, 8, 3)
	if err := b.Fit(X2, y2); err != nil {
		t.Fatal(err)
	}
	ca, err := Compile(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Compile(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := CompiledChecksum(ca)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := CompiledChecksum(cb)
	if err != nil {
		t.Fatal(err)
	}
	if sa == sb {
		t.Fatal("checksum failed to distinguish differently trained models")
	}
}

// TestDecodeCompiledRejectsCorruption: truncation, a foreign version, an
// unknown or retired kind byte, and every forged model (tables that do not
// match the class count and width, an unknown centroid metric) fail closed.
func TestDecodeCompiledRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := compileDataset(rng, 60, 8, 3)
	clf := &BernoulliNB{}
	if err := clf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	cm, err := Compile(clf, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeCompiled(cm)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeCompiled(enc); err != nil {
		t.Fatalf("intact model rejected: %v", err)
	}
	if _, _, err := DecodeCompiled(enc[:len(enc)-5]); err == nil {
		t.Fatal("truncated model accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff // version
	if _, _, err := DecodeCompiled(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	for _, kind := range []byte{0, 3, 4, 5, 6, 7, 8, 9, 0xee} {
		bad = append([]byte(nil), enc...)
		bad[2] = kind
		if _, _, err := DecodeCompiled(bad); err == nil {
			t.Fatalf("kind %d accepted", kind)
		}
	}
	if _, _, err := DecodeCompiled(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	for name, m := range forgedModels() {
		forged, err := EncodeCompiled(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, _, err := DecodeCompiled(forged); err == nil {
			t.Errorf("%s: forged model accepted", name)
		}
	}
}
