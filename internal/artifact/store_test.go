package artifact

import (
	"hash/crc32"
	"testing"

	"fiat/internal/flows"
	"fiat/internal/ml"
)

// TestStoreRulesShareOneView pins the store as a view cache: one view per
// unique arena, handed out unchanged to every acquirer, and never dropped.
func TestStoreRulesShareOneView(t *testing.T) {
	c := buildCompiled(t, flows.ModeClassic)
	blob := EncodeRules(c)
	sum := c.Checksum()
	s := NewStore()

	if v := s.AcquireRules(sum); v != nil {
		t.Fatal("acquired from an empty store")
	}
	v1, err := s.InstallRules(sum, blob)
	if err != nil {
		t.Fatal(err)
	}
	if v2, err := s.InstallRules(sum, blob); err != nil || v2 != v1 {
		t.Fatalf("reinstall returned a different view (%v)", err)
	}
	for i := 0; i < 3; i++ {
		if got := s.AcquireRules(sum); got != v1 {
			t.Fatalf("acquire %d returned a different view", i)
		}
	}
	st := s.Stats()
	if st.UniqueRules != 1 || st.RuleBytes != int64(len(blob)) || st.RulesInstalled != 1 {
		t.Fatalf("stats after three acquires: %+v", st)
	}
	if v := s.AcquireRules(0xdeadbeef); v != nil {
		t.Fatal("acquired an arena that was never installed")
	}
}

func TestStoreInstallRulesRejects(t *testing.T) {
	c := buildCompiled(t, flows.ModeClassic)
	blob := EncodeRules(c)
	s := NewStore()
	// A blob filed under the wrong content address fails closed.
	if _, err := s.InstallRules(c.Checksum()+1, blob); err == nil {
		t.Fatal("accepted arena under wrong checksum")
	}
	if _, err := s.InstallRules(c.Checksum(), blob[:len(blob)-1]); err == nil {
		t.Fatal("accepted truncated blob")
	}
	if st := s.Stats(); st.UniqueRules != 0 || st.RulesInstalled != 0 {
		t.Fatalf("failed installs left entries behind: %+v", st)
	}
}

// storeTestModel compiles an (unfitted, degenerate) classifier — enough to
// exercise the template path end to end.
func storeTestModel(t *testing.T) (sum uint32, enc, blob []byte) {
	t.Helper()
	cm, err := ml.Compile(&ml.BernoulliNB{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if enc, err = ml.EncodeCompiled(cm); err != nil {
		t.Fatal(err)
	}
	if sum, err = ml.CompiledChecksum(cm); err != nil {
		t.Fatal(err)
	}
	return sum, enc, EncodeModel(enc)
}

func TestStoreModels(t *testing.T) {
	sum, enc, blob := storeTestModel(t)
	s := NewStore()
	if _, ok := s.AcquireModel(sum); ok {
		t.Fatal("acquired from an empty store")
	}
	m1, err := s.InstallModel(sum, blob)
	if err != nil {
		t.Fatal(err)
	}
	if m2, err := s.InstallModel(sum, blob); err != nil || m2 == nil {
		t.Fatalf("reinstall: %v", err)
	}
	got, ok := s.AcquireModel(sum)
	if !ok || got == nil {
		t.Fatal("installed template not acquirable")
	}
	_ = m1
	if st := s.Stats(); st.UniqueModels != 1 || st.ModelBytes != int64(len(blob)) {
		t.Fatalf("stats: %+v", st)
	}

	fresh := NewStore() // reject paths, on a store with no cached entry
	if _, err := fresh.InstallModel(sum+1, blob); err == nil {
		t.Fatal("accepted model under wrong checksum")
	}
	if _, err := fresh.InstallModel(sum, blob[:len(blob)-1]); err == nil {
		t.Fatal("accepted truncated model blob")
	}
	// Trailing bytes after a decodable model fail closed even when the
	// checksum is filed for the padded payload.
	padded := append(append([]byte(nil), enc...), 0)
	if _, err := s.InstallModel(crc32.Checksum(padded, castagnoli), EncodeModel(padded)); err == nil {
		t.Fatal("accepted model with trailing bytes")
	}
}

// TestAcquireRulesZeroAllocs pins the warm per-device acquisition path at
// zero allocations — it runs once per device on every restart: a
// shared-view lookup. (Restore then binds the device's arrival state over
// its slices in the snapshot mapping with flows.ArrivalFromRaw, one
// ArrivalState allocation per device.)
func TestAcquireRulesZeroAllocs(t *testing.T) {
	c := buildCompiled(t, flows.ModeClassic)
	sum := c.Checksum()
	s := NewStore()
	if _, err := s.InstallRules(sum, EncodeRules(c)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if s.AcquireRules(sum) == nil {
			panic("arena vanished")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm acquire allocates %.1f times", allocs)
	}
}
