package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestRegenerateFuzzCorpus rewrites the committed FuzzDecodeAttestation seed
// corpus under testdata/fuzz/ when FIAT_WRITE_FUZZ_CORPUS=1 is set; by
// default it only verifies the committed files exist and parse. The corpus
// mirrors the internal/adversary frame manipulations — truncation, bit
// flips, time shifts — so the CI fuzz-seeds job replays the attack
// catalog's codec inputs on every merge.
func TestRegenerateFuzzCorpus(t *testing.T) {
	ks := fuzzStore(t)
	valid := fuzzAttestation(t, ks)
	flip := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x80
		return b
	}
	seeds := map[string][]byte{
		"valid":            valid,
		"mac-stripped":     valid[:len(valid)-32],
		"torn-features":    valid[:len(valid)/2],
		"header-only":      valid[:6],
		"flip-magic":       flip(0),
		"flip-version":     flip(4),
		"flip-name-len":    flip(5),
		"flip-timestamp":   flip(10),
		"flip-feature":     flip(20),
		"flip-mac":         flip(len(valid) - 1),
		"doubled-trailing": append(append([]byte(nil), valid...), valid...),
		"name-overrun":     nameOverrun(valid),
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeAttestation")
	if os.Getenv("FIAT_WRITE_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b)))
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	for name := range seeds {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("committed fuzz seed missing (regenerate with FIAT_WRITE_FUZZ_CORPUS=1): %v", err)
		}
	}
}
