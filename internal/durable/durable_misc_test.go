package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fiat/internal/core"
	"fiat/internal/flows"
	"fiat/internal/simclock"
)

// testBuild builds the proxy the Verify tests snapshot: no devices and the
// default configuration.
func testBuild(clock simclock.Clock) (*core.Proxy, error) {
	return core.NewProxy(clock, nil, nil, core.Config{}), nil
}

// testProxyImage is a real proxy image, the kind of body Verify decodes
// every snapshot as.
func testProxyImage() []byte {
	p, _ := testBuild(simclock.NewVirtual())
	return p.EncodeState()
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{
		"": SyncTick, "tick": SyncTick, "always": SyncAlways, "off": SyncOff,
	} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("SyncMode(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Fatal("bogus sync mode accepted")
	}
}

func TestVerifyReportRendering(t *testing.T) {
	dir := t.TempDir()
	ops := sampleOps(6)
	w := writeTestWAL(t, dir, 1<<20, ops)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, 3, encodeSnapshot(3, simclock.Epoch, 7, 0, testProxyImage()), nil, 1); err != nil {
		t.Fatal(err)
	}
	out := Verify(dir).String()
	for _, want := range []string{"snapshot snap-", "segment wal-", "seq range [1, 6]", "RESULT: recoverable"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	empty := t.TempDir()
	out = Verify(empty).String()
	for _, want := range []string{"no snapshots", "no wal segments", "RESULT: recoverable"} {
		if !strings.Contains(out, want) {
			t.Fatalf("empty-dir report missing %q:\n%s", want, out)
		}
	}

	missing := empty + "/nope"
	if r := Verify(missing); r.Err == nil {
		t.Fatal("missing dir verified clean")
	} else if !strings.Contains(r.String(), "FAIL CLOSED") {
		t.Fatalf("missing-dir report:\n%s", r.String())
	}
}

// TestVerifyAgreesWithOpen: a snapshot body at another proxy state version
// makes Open fail with ErrCorrupt, so Verify must report the directory as
// failing closed rather than recoverable. The intact image is the control:
// both accept it.
func TestVerifyAgreesWithOpen(t *testing.T) {
	body := testProxyImage()
	stale := append([]byte(nil), body...)
	binary.LittleEndian.PutUint16(stale, core.ProxyStateVersion-1)
	for _, c := range []struct {
		name string
		body []byte
		ok   bool
	}{{"intact", body, true}, {"version 2", stale, false}} {
		dir := t.TempDir()
		if err := writeSnapshot(dir, 1, encodeSnapshot(1, simclock.Epoch, 0, 0, c.body), nil, 1); err != nil {
			t.Fatal(err)
		}
		r := Verify(dir)
		m, err := Open(Config{Dir: dir}, simclock.NewVirtual(), testBuild)
		if c.ok {
			if r.Err != nil || err != nil {
				t.Fatalf("%s: Verify %v, Open %v", c.name, r.Err, err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if out := r.String(); r.Err == nil || !strings.Contains(out, "FAIL CLOSED") {
			t.Fatalf("%s: Verify reports recoverable:\n%s", c.name, out)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open err = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// plugBuild builds a proxy guarding one rule-classified plug.
func plugBuild(clock simclock.Clock) (*core.Proxy, error) {
	p := core.NewProxy(clock, nil, nil, core.Config{Bootstrap: time.Minute})
	return p, p.AddDevice(core.DeviceConfig{Name: "plug", Classifier: core.RuleClassifier{NotificationSize: 235}, GraceN: 1})
}

// auditStateDir leaves a closed manager's state directory whose audit
// segment holds two checkpoints' chunks: a plug learns its heartbeat, then
// off-rule packets close events into the audit log.
func auditStateDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	clock := simclock.NewVirtual()
	m, err := Open(Config{Dir: dir}, clock, plugBuild)
	if err != nil {
		t.Fatal(err)
	}
	pkt := func(port uint16) []core.PacketIn {
		clock.Advance(10 * time.Second)
		return []core.PacketIn{{Device: "plug", Rec: flows.Record{
			Time: clock.Now(), Size: 128, Proto: "tcp", Dir: flows.DirOutbound,
			RemoteIP: netip.MustParseAddr("52.1.1.1"), LocalPort: 40000, RemotePort: port,
			Category: flows.CategoryControl,
		}}}
	}
	for i := 0; i < 20; i++ {
		port := uint16(443)
		if i >= 8 {
			port = 8000 + uint16(i)
		}
		if _, err := m.ProcessBatch(pkt(port)); err != nil {
			t.Fatal(err)
		}
		if i == 14 {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if len(m.Proxy().Log()) == 0 {
		t.Fatal("the workload left no audit entries")
	}
	return dir
}

// TestVerifyAuditSegment: Verify reports the audit segment's chunks and
// entries and the bytes past the newest snapshot (which recovery
// truncates); a corrupt covered prefix makes it report that recovery would
// fail closed, as Open does. Verify writes nothing either way.
func TestVerifyAuditSegment(t *testing.T) {
	dir := auditStateDir(t)
	path := filepath.Join(dir, auditName)
	r := Verify(dir)
	if r.Err != nil || r.Audit.Chunks != 2 || r.Audit.Entries == 0 || r.Audit.Beyond != 0 {
		t.Fatalf("clean audit segment: %+v\n%s", r.Audit, r)
	}
	if out := r.String(); !strings.Contains(out, "audit segment audit.seg chunks=2") || strings.Contains(out, "recovery truncates") {
		t.Fatalf("clean report:\n%s", out)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), data...), data[:frameHdr+3]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	r = Verify(dir)
	if r.Err != nil || r.Audit.Beyond != frameHdr+3 || !strings.Contains(r.String(), "11B beyond the newest snapshot (recovery truncates)") {
		t.Fatalf("audit tail: %+v\n%s", r.Audit, r)
	}

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	r = Verify(dir)
	if out := r.String(); r.Err == nil || r.Audit.Err == nil || !strings.Contains(out, "RESULT: recovery would FAIL CLOSED") || !strings.Contains(out, "audit segment audit.seg CORRUPT") {
		t.Fatalf("corrupt covered prefix:\n%s", out)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, corrupt) {
		t.Fatal("Verify modified the audit segment")
	}
	if _, err := Open(Config{Dir: dir}, simclock.NewVirtual(), plugBuild); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on a corrupt covered prefix: %v, want ErrCorrupt", err)
	}
}

func TestWALFrameSeq(t *testing.T) {
	op := sampleOps(1)[0]
	frame := appendFrame(nil, EncodeOp(op))
	seq, ok := walFrameSeq(frame)
	if !ok || seq != op.Seq {
		t.Fatalf("walFrameSeq = %d, %v", seq, ok)
	}
	if _, ok := walFrameSeq(frame[:10]); ok {
		t.Fatal("short frame yielded a seq")
	}
}

func TestSyncAlwaysAppend(t *testing.T) {
	dir := t.TempDir()
	w := &wal{dir: dir, segBytes: 1 << 20, mode: SyncAlways}
	for _, op := range sampleOps(3) {
		if err := w.append(op.Seq, appendFrame(nil, EncodeOp(op))); err != nil {
			t.Fatal(err)
		}
		if w.dirty || w.syncedSize != w.size {
			t.Fatalf("append left unsynced bytes (dirty=%v synced=%d size=%d)", w.dirty, w.syncedSize, w.size)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}
