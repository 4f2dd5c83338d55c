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
// trace's EncodeState image) pass the config checksum and mutations reach
// the device sections. Properties: restore never panics; an accepted image
// re-encodes to bytes that restore into a fresh proxy and re-encode
// identically; the offline inspector accepts both the image and its
// re-encoding and walks exactly the proxy's devices (it parses the device
// sections independently of restoreDevice, so this catches format drift
// between the two); and the restored proxy survives a batch.
func FuzzProxyRestoreState(f *testing.F) {
	f.Fuzz(func(t *testing.T, trace uint8, image []byte) {
		fuzzKSOnce.Do(func() { fuzzKS, fuzzKSErr = keystore.New(rand.New(rand.NewSource(1))) })
		if fuzzKSErr != nil {
			t.Fatal(fuzzKSErr)
		}
		g := goldenTraces[int(trace)%len(goldenTraces)]
		clock := simclock.NewVirtual()
		p := goldenProxy(t, g, clock, fuzzKS, 1)
		if err := p.RestoreState(image); err != nil {
			return
		}
		enc := p.EncodeState()
		ndev := len(p.deviceStates())
		for _, c := range []struct {
			name string
			img  []byte
		}{{"image", image}, {"re-encoded image", enc}} {
			info, err := InspectStateArtifacts(c.img)
			if err != nil {
				t.Fatalf("restore accepts the %s but the inspector rejects it: %v", c.name, err)
			}
			if info.Devices != ndev {
				t.Fatalf("inspector walks %d devices in the %s, proxy has %d", info.Devices, c.name, ndev)
			}
		}
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
