package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/simclock"
)

var (
	fuzzKSOnce sync.Once
	fuzzKS     *keystore.Store
	fuzzKSErr  error
)

// FuzzProxyRestoreState feeds arbitrary snapshot images to RestoreState.
// trace picks which golden trace's proxy configuration restores the image,
// so the committed seeds (testdata/fuzz/FuzzProxyRestoreState: each golden
// trace's EncodeState image, kept in step by TestFuzzCorpusCommitted) pass
// the config checksum and mutations reach the device sections. Properties:
// restore never panics; an image decodeState rejects leaves the proxy's
// encoding unchanged; an accepted image re-encodes to bytes that restore
// into a fresh proxy and re-encode identically; and the restored proxy
// survives a batch. Restore binds arrival state into the image and writes
// into it, so the proxy restores from a private copy of the input.
func FuzzProxyRestoreState(f *testing.F) {
	f.Fuzz(func(t *testing.T, trace uint8, input []byte) {
		image := append([]byte(nil), input...)
		fuzzKSOnce.Do(func() { fuzzKS, fuzzKSErr = keystore.New(rand.New(rand.NewSource(1))) })
		if fuzzKSErr != nil {
			t.Fatal(fuzzKSErr)
		}
		g := goldenTraces[int(trace)%len(goldenTraces)]
		clock := simclock.NewVirtual()
		p := goldenProxy(t, g, clock, fuzzKS, 1)
		if _, derr := decodeState(image, nil, false); derr != nil {
			before := p.EncodeState()
			if err := p.RestoreState(image); err == nil {
				t.Fatal("restore accepts an image decodeState rejects")
			}
			if !bytes.Equal(p.EncodeState(), before) {
				t.Fatalf("rejected image (%v) changed the proxy", derr)
			}
			return
		}
		if err := p.RestoreState(image); err != nil {
			return
		}
		enc := p.EncodeState()
		q := goldenProxy(t, g, simclock.NewVirtual(), fuzzKS, 1)
		if err := q.RestoreState(enc); err != nil {
			t.Fatalf("re-encoded image does not restore: %v", err)
		}
		if !bytes.Equal(q.EncodeState(), enc) {
			t.Fatal("re-encoded image restores to different bytes")
		}
		clock.Advance(time.Hour)
		var batch []PacketIn
		for _, d := range diffDevices {
			batch = append(batch,
				PacketIn{Device: d.name, Rec: diffRec(clock.Now(), 128, flows.CategoryControl)},
				PacketIn{Device: d.name, Rec: diffRec(clock.Now(), d.size, flows.CategoryManual)})
		}
		p.ProcessBatch(batch)
	})
}
