package durable_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"fiat/internal/core"
	"fiat/internal/durable"
	"fiat/internal/simclock"
)

// auditEvents runs rounds 64-packet batches that each close 64 events into
// the audit log.
func auditEvents(t *testing.T, mgr *durable.Manager, clock *simclock.VirtualClock, rounds int) {
	t.Helper()
	batch := make([]core.PacketIn, 64)
	for r := 0; r < rounds; r++ {
		nextBatch(clock, batch, 8883)
		if _, err := mgr.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestCheckpointCostIndependentOfHistory: a checkpoint writes the snapshot
// of the detached image plus only the audit entries added since the
// previous checkpoint, so the bytes it writes stay at the non-log image
// plus the new entries' encoding (and one header each) whether the log
// holds N or 10·N entries — far below the whole image at 10·N.
func TestCheckpointCostIndependentOfHistory(t *testing.T) {
	const n = 10 // rounds of 64 entries
	dir := t.TempDir()
	clock := simclock.NewVirtual()
	mgr := steadyManager(t, dir, clock)
	audit := filepath.Join(dir, durable.AuditName)

	measure := func() (written, bound int) {
		auditEvents(t, mgr, clock, 1)
		proxy := mgr.Proxy()
		from := len(proxy.Log()) - 64
		before := fileSize(t, audit)
		if err := mgr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		snap := fileSize(t, filepath.Join(dir, durable.SnapName(mgr.SnapshotSeq())))
		written = int(snap + fileSize(t, audit) - before)
		body, nlog := proxy.AppendStateDetached(nil)
		entries := proxy.AppendLogEntries(nil, from, nlog)
		return written, len(body) + len(entries) + durable.SnapHdrLen + durable.FrameHdr
	}

	auditEvents(t, mgr, clock, n-1)
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	small, smallBound := measure()
	auditEvents(t, mgr, clock, 9*n-1)
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	large, largeBound := measure()
	if entries := len(mgr.Proxy().Log()); entries < 10*n*64 {
		t.Fatalf("audit log holds %d entries, want >= %d", entries, 10*n*64)
	}
	if small > smallBound || large > largeBound {
		t.Fatalf("checkpoint wrote %d B at N entries (bound %d) and %d B at 10N (bound %d)", small, smallBound, large, largeBound)
	}
	if whole := len(mgr.Proxy().EncodeState()); large*4 > whole {
		t.Fatalf("checkpoint at 10N wrote %d B of a %d B image; it still scales with history", large, whole)
	}
}

// TestAuditChunksSplitAtCap: entries beyond the chunk cap split into
// several chunks, none over the cap, and the segment restores the log.
func TestAuditChunksSplitAtCap(t *testing.T) {
	const limit = 1 << 10
	durable.SetAuditChunkCap(t, limit)
	dir := t.TempDir()
	clock := simclock.NewVirtual()
	mgr := steadyManager(t, dir, clock)
	auditEvents(t, mgr, clock, 2)
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, durable.AuditName))
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for off := 0; off < len(data); chunks++ {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > limit {
			t.Fatalf("chunk %d holds %d payload bytes, cap %d", chunks, n, limit)
		}
		off += durable.FrameHdr + n
	}
	if chunks < 2 {
		t.Fatalf("%d B of entries in %d chunk(s)", len(data), chunks)
	}
	want := mgr.Proxy().EncodeState()
	mgr.Abort()
	mgr2, err := durable.Open(durable.Config{Dir: dir}, simclock.NewVirtual(), mgrBuild(t))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Abort()
	if !bytes.Equal(mgr2.Proxy().EncodeState(), want) {
		t.Fatal("state restored from split chunks differs")
	}
}

// TestOpenAuditSegment: Open truncates audit bytes past the newest
// snapshot's covered length, and fails closed — touching nothing — when
// the covered prefix is short or corrupt.
func TestOpenAuditSegment(t *testing.T) {
	setup := func(t *testing.T) (string, []byte) {
		dir := t.TempDir()
		clock := simclock.NewVirtual()
		mgr := steadyManager(t, dir, clock)
		auditEvents(t, mgr, clock, 2)
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, mgr.Proxy().EncodeState()
	}
	open := func(dir string) (*durable.Manager, error) {
		return durable.Open(durable.Config{Dir: dir}, simclock.NewVirtual(), mgrBuild(t))
	}

	t.Run("tail truncated", func(t *testing.T) {
		dir, want := setup(t)
		path := filepath.Join(dir, durable.AuditName)
		covered := fileSize(t, path)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("a checkpoint that never landed"))
		f.Close()
		mgr, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Abort()
		if got := fileSize(t, path); got != covered {
			t.Fatalf("audit segment is %d B after recovery, want the covered %d", got, covered)
		}
		if !bytes.Equal(mgr.Proxy().EncodeState(), want) {
			t.Fatal("recovered state differs")
		}
	})
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"short", func(d []byte) []byte { return d[:len(d)-1] }},
		{"corrupt", func(d []byte) []byte { d[durable.FrameHdr] ^= 0xff; return d }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := setup(t)
			path := filepath.Join(dir, durable.AuditName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damaged := tc.damage(data)
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := open(dir); !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("open: err = %v, want ErrCorrupt", err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, damaged) {
				t.Fatal("a failed open modified the audit segment")
			}
		})
	}
}
