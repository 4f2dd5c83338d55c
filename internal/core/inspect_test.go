package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fiat/internal/flows"
)

// TestInspectStateArtifactsFleetDedup: a fleet of identically-learning
// devices freezes one rule template, so the v3 image carries one arena that
// every device references. The offline inspector must count that dedup
// exactly, the restore must share one store view across the fleet, a second
// restore must reuse it, and the proxy must re-encode to the image it
// restored.
func TestInspectStateArtifactsFleetDedup(t *testing.T) {
	const n = 8
	build := func() *testRig {
		r := newRig(t, Config{Shards: 1, Bootstrap: time.Minute})
		for i := 0; i < n; i++ {
			if err := r.proxy.AddDevice(DeviceConfig{
				Name: fmt.Sprintf("plug-%d", i), Classifier: RuleClassifier{NotificationSize: 235}, GraceN: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}

	src := build()
	for tick := 0; tick < 9; tick++ { // 10 s beats; bootstrap ends at 60 s
		src.clock.Advance(10 * time.Second)
		for i := 0; i < n; i++ {
			src.proxy.Process(fmt.Sprintf("plug-%d", i), mkRec(src.clock.Now(), 128, flows.CategoryControl), "")
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := src.proxy.CompiledRules(fmt.Sprintf("plug-%d", i)); !ok {
			t.Fatalf("plug-%d did not freeze a compiled template", i)
		}
	}
	enc := src.proxy.EncodeState()

	body, nlog := src.proxy.AppendStateDetached(nil)
	log, err := DecodeLogEntries([][]byte{src.proxy.AppendLogEntries(nil, 0, nlog)})
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectStateArtifacts(body, log)
	if err != nil {
		t.Fatal(err)
	}
	if info.Arenas != 1 || info.ArenaRefs != n || info.Devices != n || info.ArenaBytes <= 0 {
		t.Fatalf("want 1 arena referenced by %d devices: %s", n, info)
	}
	if want := int64(n-1) * info.ArenaBytes; info.SavedBytes != want {
		t.Fatalf("SavedBytes = %d, want (n-1)*ArenaBytes = %d", info.SavedBytes, want)
	}

	dst := build()
	if err := dst.proxy.RestoreState(append([]byte(nil), enc...)); err != nil {
		t.Fatal(err)
	}
	view, _ := dst.proxy.CompiledRules("plug-0")
	// A second restore into the same proxy finds the arena already in its
	// store: nothing is installed again and every device gets the same view.
	if err := dst.proxy.RestoreState(append([]byte(nil), enc...)); err != nil {
		t.Fatal(err)
	}
	if st := dst.proxy.cfg.Artifacts.Stats(); st.UniqueRules != 1 || st.RulesInstalled != 1 {
		t.Fatalf("store holds %d arenas after %d installs, want 1 after 1", st.UniqueRules, st.RulesInstalled)
	}
	for i := 0; i < n; i++ {
		if got, ok := dst.proxy.CompiledRules(fmt.Sprintf("plug-%d", i)); !ok || got != view {
			t.Fatalf("plug-%d does not share the fleet's one rule view", i)
		}
	}
	if !bytes.Equal(dst.proxy.EncodeState(), enc) {
		t.Fatal("restored fleet re-encodes differently")
	}
}
