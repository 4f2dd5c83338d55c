package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fiat/internal/keystore"
	"fiat/internal/simclock"
	"fiat/internal/wire"
)

const restoreCorpusDir = "testdata/fuzz/FuzzProxyRestoreState"

// restoreSeedFile is a FuzzProxyRestoreState seed file: the golden trace
// index that picks the restoring proxy's configuration, then the image.
func restoreSeedFile(trace uint8, image []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\nuint8(%d)\n[]byte(%s)\n", trace, strconv.Quote(string(image))))
}

// readRestoreSeed parses a committed FuzzProxyRestoreState seed file. The
// trace byte is written either as uint8(N) or as byte('c').
func readRestoreSeed(t *testing.T, name string) (uint8, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(restoreCorpusDir, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("seed %s: not a two-argument fuzz file", name)
	}
	var trace uint8
	switch arg := lines[1]; {
	case strings.HasPrefix(arg, "uint8(") && strings.HasSuffix(arg, ")"):
		n, err := strconv.ParseUint(arg[len("uint8("):len(arg)-1], 10, 8)
		if err != nil {
			t.Fatalf("seed %s: %v", name, err)
		}
		trace = uint8(n)
	case strings.HasPrefix(arg, "byte(") && strings.HasSuffix(arg, ")"):
		c, _, tail, err := strconv.UnquoteChar(strings.TrimSuffix(strings.TrimPrefix(arg[len("byte("):len(arg)-1], "'"), "'"), '\'')
		if err != nil || tail != "" || c > 0xff {
			t.Fatalf("seed %s: bad byte argument %s", name, arg)
		}
		trace = uint8(c)
	default:
		t.Fatalf("seed %s: bad trace argument %s", name, arg)
	}
	arg := lines[2]
	if !strings.HasPrefix(arg, "[]byte(") || !strings.HasSuffix(arg, ")") {
		t.Fatalf("seed %s: bad image argument", name)
	}
	image, err := strconv.Unquote(arg[len("[]byte(") : len(arg)-1])
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return trace, []byte(image)
}

// forgedCountTrace is the golden trace whose image the
// obs-registry-forged-count seed forges.
var forgedCountTrace = goldenTrace{"ml", 59}

// forgeRegistryCount returns a copy of image whose swap registry — the first
// of the two obs registries in the tail — claims 2^32-1 counters.
func forgeRegistryCount(t *testing.T, image []byte) []byte {
	t.Helper()
	img, err := decodeState(image, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// The tail opens with the swap registry's u32 frame length, then the
	// registry's u16 version and its u32 counter count.
	at := len(image) - len(img.tail) + 4 + 2
	out := append([]byte(nil), image...)
	binary.LittleEndian.PutUint32(out[at:], math.MaxUint32)
	return out
}

// TestFuzzCorpusCommitted keeps FuzzProxyRestoreState's golden seeds in step
// with the encoder: each golden-<kind>-<seed> file must hold its trace's
// index and the EncodeState image replayGolden leaves, at 1 and 4 shards,
// and obs-registry-forged-count must hold forgedCountTrace's image with its
// swap registry's count forged. With FIAT_WRITE_FUZZ_CORPUS=1 it rewrites
// them from the 1-shard replay.
func TestFuzzCorpusCommitted(t *testing.T) {
	write := os.Getenv("FIAT_WRITE_FUZZ_CORPUS") == "1"
	for i, g := range goldenTraces {
		for _, shards := range []int{1, 4} {
			_, p := replayGolden(t, g, shards)
			seeds := map[string][]byte{
				fmt.Sprintf("golden-%s-%d", g.kind, g.seed): restoreSeedFile(uint8(i), p.EncodeState()),
			}
			if g == forgedCountTrace {
				seeds["obs-registry-forged-count"] = restoreSeedFile(uint8(i), forgeRegistryCount(t, p.EncodeState()))
			}
			for name, want := range seeds {
				path := filepath.Join(restoreCorpusDir, name)
				if write && shards == 1 {
					if err := os.WriteFile(path, want, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("seed %s missing (FIAT_WRITE_FUZZ_CORPUS=1 writes it): %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("seed %s differs from the %d-shard replay (FIAT_WRITE_FUZZ_CORPUS=1 rewrites it)", name, shards)
				}
			}
		}
	}
}

// TestFuzzSeedForgedCountReachesRegistry: the obs-registry-forged-count seed
// forges a metric count in one of the obs registries at the image's tail.
// Every section before it must decode and install, so the rejection comes
// from the registry restore's bound on that count; were it rejected earlier
// (say, at the config checksum after a format change), the seed would no
// longer exercise the bound it was added for.
func TestFuzzSeedForgedCountReachesRegistry(t *testing.T) {
	trace, image := readRestoreSeed(t, "obs-registry-forged-count")
	g := goldenTraces[int(trace)%len(goldenTraces)]
	if g != forgedCountTrace {
		t.Fatalf("seed restores into %s, want ml-seed=59", g.name())
	}
	if _, err := decodeState(image, nil, false); err != nil {
		t.Fatalf("seed does not decode: %v", err)
	}
	ks, err := keystore.New(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	err = goldenProxy(t, g, simclock.NewVirtual(), ks, 1).RestoreState(image)
	if err == nil || !strings.Contains(err.Error(), "obs: restore registry") || !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("restore err = %v, want a registry restore rejection", err)
	}
}

// TestRestoreDecodeFailureLeavesProxyUntouched cuts a rules and an ML golden
// image at every byte offset before the tail decodeState leaves unparsed,
// and separately sets one device's locked flag to 2, a byte AppendBool never
// writes. Each such image must fail to restore and leave the receiving
// proxy's encoding byte-identical, because decode rejects it before anything
// is installed.
func TestRestoreDecodeFailureLeavesProxyUntouched(t *testing.T) {
	ks, err := keystore.New(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []goldenTrace{{"rules", 11}, {"ml", 7}} {
		_, src := replayGolden(t, g, 1)
		enc := src.EncodeState()
		img, err := decodeState(enc, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		tailAt := len(enc) - len(img.tail)
		p := goldenProxy(t, g, simclock.NewVirtual(), ks, 1)
		before := p.EncodeState()
		for cut := 0; cut < tailAt; cut++ {
			if err := p.RestoreState(enc[:cut]); err == nil {
				t.Fatalf("%s: image cut at %d/%d bytes restored", g.name(), cut, len(enc))
			}
			if !bytes.Equal(p.EncodeState(), before) {
				t.Fatalf("%s: image cut at %d/%d bytes changed the proxy", g.name(), cut, len(enc))
			}
		}

		// Locate the first device's locked flag by flipping it on the source
		// and diffing the two images: exactly one byte may move.
		ds := src.deviceStates()[0]
		ds.locked = !ds.locked
		flipped := src.EncodeState()
		ds.locked = !ds.locked
		if len(flipped) != len(enc) {
			t.Fatalf("%s: flipping the locked flag resized the image", g.name())
		}
		at := -1
		for i := range enc {
			if enc[i] != flipped[i] {
				if at >= 0 {
					t.Fatalf("%s: flipping one flag moved bytes %d and %d", g.name(), at, i)
				}
				at = i
			}
		}
		if at < 0 {
			t.Fatalf("%s: flipping the locked flag moved no byte", g.name())
		}
		bad := append([]byte(nil), enc...)
		bad[at] = 2
		if err := p.RestoreState(bad); !errors.Is(err, wire.ErrBool) {
			t.Fatalf("%s: locked flag byte 2: restore err = %v, want wire.ErrBool", g.name(), err)
		}
		if !bytes.Equal(p.EncodeState(), before) {
			t.Fatalf("%s: locked flag byte 2 changed the proxy", g.name())
		}
	}
}
