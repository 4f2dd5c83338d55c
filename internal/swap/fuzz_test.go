package swap

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeedMetas builds the representative artifact headers committed as the
// fuzz seed corpus: valid identities plus each framing failure mode.
func fuzzSeedMetas() map[string][]byte {
	root := Meta{Generation: 1, RulesSum: 0x01020304}
	child := Meta{Generation: 2, Parent: 1, RulesSum: 0xa5a5a5a5, ModelSum: 7}
	corrupt := func(src []byte, i int) []byte {
		b := append([]byte(nil), src...)
		b[i] ^= 0xff
		return b
	}
	rootEnc, childEnc := root.Encode(), child.Encode()
	return map[string][]byte{
		"root":        rootEnc,
		"child":       childEnc,
		"trailing":    append(append([]byte(nil), childEnc...), 0xde, 0xad),
		"truncated":   rootEnc[:EncodedMetaLen-3],
		"empty":       {},
		"bad_magic":   corrupt(rootEnc, 0),
		"bad_version": corrupt(rootEnc, len(metaMagic)),
		"bad_field":   corrupt(childEnc, len(metaMagic)+5),
		"bad_crc":     corrupt(childEnc, EncodedMetaLen-2),
		"gen_zero":    Meta{Generation: 0}.Encode(),
		"bad_parent":  Meta{Generation: 4, Parent: 4}.Encode(),
	}
}

// TestFuzzCorpusCommitted keeps the fuzz seed corpus in lockstep with the
// codec. With FIAT_WRITE_FUZZ_CORPUS=1 it (re)writes the seed files;
// otherwise it fails if any committed seed is missing.
func TestFuzzCorpusCommitted(t *testing.T) {
	write := os.Getenv("FIAT_WRITE_FUZZ_CORPUS") == "1"
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeMeta")
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range fuzzSeedMetas() {
		path := filepath.Join(dir, name)
		if write {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b)))
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("committed fuzz seed missing (regenerate with FIAT_WRITE_FUZZ_CORPUS=1): %v", err)
		}
	}
}

// FuzzDecodeMeta hammers the artifact-identity frame parser: decoding must
// never panic, anything accepted must satisfy the identity invariants, and
// every accepted header must re-encode byte-identically — durable restart
// depends on the header codec being canonical.
func FuzzDecodeMeta(f *testing.F) {
	for _, b := range fuzzSeedMetas() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, rest, err := DecodeMeta(data)
		if err != nil {
			return
		}
		if m.Generation == 0 {
			t.Fatal("accepted generation 0")
		}
		if m.Parent >= m.Generation {
			t.Fatalf("accepted parent %d >= generation %d", m.Parent, m.Generation)
		}
		if len(rest) != len(data)-EncodedMetaLen {
			t.Fatalf("rest length %d from %d input bytes", len(rest), len(data))
		}
		if enc := m.Encode(); !bytes.Equal(enc, data[:EncodedMetaLen]) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data[:EncodedMetaLen], enc)
		}
	})
}
