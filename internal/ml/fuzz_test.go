package ml

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// forgedModels are hand-built compiled models whose tables disagree with
// their class count or width, or whose metric is unknown. The encoder
// writes them out faithfully; the decoder must refuse every one, because
// inference on any of them would index past a table.
func forgedModels() map[string]CompiledModel {
	return map[string]CompiledModel{
		// Empty tables under three classes: Infer reads prior[0].
		"bernoulli-empty-tables": &compiledBernoulli{d: 5, classes: []int{0, 1, 2}},
		// 2 classes × 2 × 2^62 wraps to 0 in int, matching the empty table.
		"bernoulli-width-overflow": &compiledBernoulli{d: 1 << 62, prior: []float64{0, 0}, classes: []int{0, 1}},
		// 4 classes × 2^62 wraps to 0, matching the empty centroid arena.
		"centroid-width-overflow": &compiledCentroid{d: 1 << 62, classes: []int{0, 1, 2, 3}},
		"centroid-bad-metric":     &compiledCentroid{d: 1, cen: []float64{0}, classes: []int{0}, metric: Chebyshev + 1},
		// No classes but a width: no compiled estimator produces this.
		"bernoulli-classless-width": &compiledBernoulli{d: 1 << 40},
	}
}

// fuzzSeedModels builds the committed FuzzDecodeCompiled seed corpus: each
// compiled family fitted with and without a scaler and unfitted, the forged
// models above, every retired kind byte, and a truncated blob.
func fuzzSeedModels(tb testing.TB) map[string][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(13))
	X, y := compileDataset(rng, 30, 4, 3)
	var scaler StandardScaler
	Xs, err := scaler.FitTransform(X)
	if err != nil {
		tb.Fatal(err)
	}
	encode := func(m CompiledModel) []byte {
		b, err := EncodeCompiled(m)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	seeds := map[string][]byte{}
	for name, clf := range compileFamilies() {
		unfitted, err := Compile(clf, nil)
		if err != nil {
			tb.Fatal(err)
		}
		seeds[name+"-unfitted"] = encode(unfitted)
		if err := clf.Fit(X, y); err != nil {
			tb.Fatal(err)
		}
		raw, err := Compile(clf, nil)
		if err != nil {
			tb.Fatal(err)
		}
		seeds[name+"-raw"] = encode(raw)
		if err := clf.Fit(Xs, y); err != nil {
			tb.Fatal(err)
		}
		scaled, err := Compile(clf, &scaler)
		if err != nil {
			tb.Fatal(err)
		}
		seeds[name+"-scaled"] = encode(scaled)
	}
	for name, m := range forgedModels() {
		seeds[name] = encode(m)
	}
	base := seeds["bernoulli-scaled"]
	for kind := byte(3); kind <= 9; kind++ {
		b := append([]byte(nil), base...)
		b[2] = kind
		seeds[fmt.Sprintf("retired-kind-%d", kind)] = b
	}
	seeds["truncated"] = base[:len(base)-5]
	return seeds
}

// TestFuzzCorpusCommitted keeps the committed seed corpora in lockstep
// with fuzzSeedModels and treeSeedCases. With FIAT_WRITE_FUZZ_CORPUS=1 it
// (re)writes the seed files; otherwise it fails if any committed seed is
// missing or differs from what its generator makes today.
func TestFuzzCorpusCommitted(t *testing.T) {
	write := os.Getenv("FIAT_WRITE_FUZZ_CORPUS") == "1"
	sets := map[string]map[string][]byte{
		"FuzzDecodeCompiled":  fuzzSeedModels(t),
		"FuzzDecisionTreeFit": treeSeedCases(),
	}
	for fuzzName, seeds := range sets {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if write {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for name, b := range seeds {
			path := filepath.Join(dir, name)
			content := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b))))
			if write {
				if err := os.WriteFile(path, content, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("committed fuzz seed missing (regenerate with FIAT_WRITE_FUZZ_CORPUS=1): %v", err)
			}
			if !bytes.Equal(got, content) {
				t.Errorf("committed fuzz seed %s/%s is stale (regenerate with FIAT_WRITE_FUZZ_CORPUS=1)", fuzzName, name)
			}
		}
	}
}

// compiledWidth is the feature width a compiled model was built for.
func compiledWidth(m CompiledModel) int {
	switch c := m.(type) {
	case *compiledCentroid:
		return c.d
	case *compiledBernoulli:
		return c.d
	}
	return 0
}

// FuzzDecodeCompiled hammers the compiled-model decoder that snapshot
// restore and the artifact store feed with untrusted bytes. Decoding must
// never panic; an accepted model must re-encode to exactly the bytes it
// consumed (the checksum snapshot restore compares is over that encoding);
// and its Infer on a zero row of its own width must return.
func FuzzDecodeCompiled(f *testing.F) {
	for _, b := range fuzzSeedModels(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, rest, err := DecodeCompiled(data)
		if err != nil {
			return
		}
		enc, err := EncodeCompiled(m)
		if err != nil {
			t.Fatalf("accepted model does not encode: %v", err)
		}
		if consumed := data[:len(data)-len(rest)]; !bytes.Equal(enc, consumed) {
			t.Fatalf("re-encoding differs from the %d consumed bytes", len(consumed))
		}
		m.Infer(make([]float64, compiledWidth(m)))
	})
}
