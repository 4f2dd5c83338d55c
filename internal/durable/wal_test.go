package durable

import (
	"bytes"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fiat/internal/core"
	"fiat/internal/flows"
	"fiat/internal/simclock"
)

func sampleOps(n int) []*Op {
	base := simclock.Epoch
	rec := flows.Record{
		Time: base, Size: 128, Proto: "tcp", Dir: flows.DirInbound,
		RemoteIP: netip.MustParseAddr("52.1.1.1"), RemoteDomain: "cloud.example",
		LocalPort: 40000, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303,
		Category: flows.CategoryControl,
	}
	var out []*Op
	for i := 0; i < n; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		op := &Op{Seq: uint64(i + 1), Time: at}
		switch i % 6 {
		case 0, 1, 2:
			op.Kind = OpBatch
			r := rec
			r.Time = at
			op.Batch = []core.PacketIn{{Device: "plug", Rec: r}, {Device: "cam", Rec: r, Peer: "hub"}}
		case 3:
			op.Kind = OpSweep
		case 4:
			op.Kind = OpAttestation
			op.Payload = bytes.Repeat([]byte{byte(i)}, 64)
		case 5:
			op.Kind = OpFlush
			op.Device = "plug"
		}
		out = append(out, op)
	}
	return out
}

func TestOpCodecRoundTrip(t *testing.T) {
	ops := sampleOps(12)
	ops = append(ops, &Op{Seq: 13, Kind: OpChannelDown, Time: simclock.Epoch},
		&Op{Seq: 14, Kind: OpChannelUp, Time: simclock.Epoch.Add(time.Minute)})
	for _, op := range ops {
		enc := EncodeOp(op)
		dec, err := DecodeOp(enc)
		if err != nil {
			t.Fatalf("op %d: %v", op.Seq, err)
		}
		if !bytes.Equal(EncodeOp(&dec), enc) {
			t.Fatalf("op %d: re-encode differs", op.Seq)
		}
		if dec.Seq != op.Seq || dec.Kind != op.Kind || !dec.Time.Equal(op.Time) {
			t.Fatalf("op %d: header mismatch: %+v", op.Seq, dec)
		}
	}
}

func TestDecodeOpRejectsCorruption(t *testing.T) {
	op := sampleOps(1)[0]
	enc := EncodeOp(op)
	if _, err := DecodeOp(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated op accepted")
	}
	if _, err := DecodeOp(nil); err == nil {
		t.Fatal("empty op accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[8] = 0xee // kind
	if _, err := DecodeOp(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := DecodeOp(append(enc, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// writeTestWAL appends ops through the real append path and returns the wal.
func writeTestWAL(t *testing.T, dir string, segBytes int64, ops []*Op) *wal {
	t.Helper()
	w := &wal{dir: dir, segBytes: segBytes, mode: SyncOff}
	for _, op := range ops {
		if err := w.append(op.Seq, appendFrame(nil, EncodeOp(op))); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestWALAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ops := sampleOps(30)
	w := writeTestWAL(t, dir, 512, ops) // small segments force rotations
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	scan, err := scanWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if scan.truncated != 0 {
		t.Fatalf("clean log reports %d truncated", scan.truncated)
	}
	if len(scan.payloads) != len(ops) {
		t.Fatalf("scanned %d records, wrote %d", len(scan.payloads), len(ops))
	}
	if scan.firstSeq != 1 || scan.lastSeq != uint64(len(ops)) {
		t.Fatalf("seq range [%d,%d]", scan.firstSeq, scan.lastSeq)
	}
	for i, p := range scan.payloads {
		if !bytes.Equal(p, EncodeOp(ops[i])) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	ops := sampleOps(5)
	w := writeTestWAL(t, dir, 1<<20, ops)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop the last 3 bytes of the single segment.
	path := filepath.Join(dir, segName(1))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	scan, err := scanWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.payloads) != len(ops)-1 {
		t.Fatalf("scanned %d records, want %d", len(scan.payloads), len(ops)-1)
	}
	if scan.truncated != 1 {
		t.Fatalf("truncated = %d, want 1", scan.truncated)
	}
	// The repair physically removed the torn bytes: a re-scan is clean and
	// the segment accepts appends again.
	scan2, err := scanWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if scan2.truncated != 0 || len(scan2.payloads) != len(ops)-1 {
		t.Fatalf("post-repair scan: %d records, %d truncated", len(scan2.payloads), scan2.truncated)
	}
	w2 := &wal{dir: dir, segBytes: 1 << 20, mode: SyncOff}
	if err := w2.openAppend(scan2.appendSeg, scan2.lastSeq+1); err != nil {
		t.Fatal(err)
	}
	last := *ops[len(ops)-1]
	if err := w2.append(last.Seq, appendFrame(nil, EncodeOp(&last))); err != nil {
		t.Fatal(err)
	}
	w2.close()
	scan3, err := scanWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if scan3.lastSeq != last.Seq {
		t.Fatalf("post-repair append lastSeq = %d, want %d", scan3.lastSeq, last.Seq)
	}
}

func TestWALMidStreamCorruptionFailsClosed(t *testing.T) {
	dir := t.TempDir()
	ops := sampleOps(6)
	w := writeTestWAL(t, dir, 1<<20, ops)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the FIRST record's payload: damage before the
	// tail means acknowledged input was corrupted, never repairable.
	data[walHdrLen+frameHdr+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scanWAL(dir, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-stream corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestWALNonFinalSegmentCorruptionFailsClosed(t *testing.T) {
	dir := t.TempDir()
	ops := sampleOps(30)
	w := writeTestWAL(t, dir, 512, ops)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need >= 2 segments (err=%v)", err)
	}
	// Tear the TAIL of the first (non-final) segment — only final segments
	// may be torn.
	path := filepath.Join(dir, segName(segs[0]))
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-2); err != nil {
		t.Fatal(err)
	}
	if _, err := scanWAL(dir, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-final torn tail: err = %v, want ErrCorrupt", err)
	}
}

func TestWALSeqGapFailsClosed(t *testing.T) {
	dir := t.TempDir()
	ops := sampleOps(10)
	w := writeTestWAL(t, dir, 512, ops)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("need >= 2 segments (err=%v)", err)
	}
	// Delete a middle segment: the records still checksum but the sequence
	// stream has a hole.
	if err := os.Remove(filepath.Join(dir, segName(segs[len(segs)-2]))); err != nil {
		t.Fatal(err)
	}
	if _, err := scanWAL(dir, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("seq gap: err = %v, want ErrCorrupt", err)
	}
}

func TestWALTornRotationHeaderDropped(t *testing.T) {
	dir := t.TempDir()
	ops := sampleOps(8)
	w := writeTestWAL(t, dir, 1<<20, ops)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-rotation: a new final segment exists with only a
	// partial magic.
	torn := filepath.Join(dir, segName(uint64(len(ops)+1)))
	if err := os.WriteFile(torn, []byte(walMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err := scanWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.payloads) != len(ops) {
		t.Fatalf("scanned %d records, want %d", len(scan.payloads), len(ops))
	}
	if scan.truncated != 1 {
		t.Fatalf("truncated = %d, want 1", scan.truncated)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn rotation target not removed by repair")
	}
	if scan.appendSeg != 1 {
		t.Fatalf("appendSeg = %d, want 1", scan.appendSeg)
	}
}

func TestWALTrimBefore(t *testing.T) {
	dir := t.TempDir()
	ops := sampleOps(30)
	w := writeTestWAL(t, dir, 512, ops)
	segsBefore, _ := listSegments(dir)
	if len(segsBefore) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segsBefore))
	}
	// Trim everything covered by a checkpoint at the last seq: every closed
	// segment goes; the open one stays.
	if err := w.trimBefore(uint64(len(ops)) + 1); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := listSegments(dir)
	if len(segsAfter) != 1 || segsAfter[0] != segsBefore[len(segsBefore)-1] {
		t.Fatalf("segments after trim: %v", segsAfter)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	// The survivor still scans, and replay skips covered seqs upstream.
	if _, err := scanWAL(dir, false); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte("fiat-state"), 100)
	at := simclock.Epoch.Add(42 * time.Minute)
	if err := writeSnapshot(dir, 7, encodeSnapshot(7, at, 0xdeadbeef, 0, body), nil, 1); err != nil {
		t.Fatal(err)
	}
	h, got, err := loadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h.Seq != 7 || !h.Time.Equal(at) || h.ConfigSum != 0xdeadbeef || !bytes.Equal(got, body) {
		t.Fatalf("round trip: %+v", h)
	}

	// Corrupting the newest final-named snapshot fails closed.
	path := filepath.Join(dir, snapName(7))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadLatestSnapshot(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: err = %v, want ErrCorrupt", err)
	}

	// A truncated image fails closed too.
	if err := os.WriteFile(path, data[:snapHdrLen+10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadLatestSnapshot(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestVerifyReadOnly(t *testing.T) {
	dir := t.TempDir()
	ops := sampleOps(20)
	w := writeTestWAL(t, dir, 512, ops)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(dir, 10, encodeSnapshot(10, simclock.Epoch, 1, 0, testProxyImage()), nil, 1); err != nil {
		t.Fatal(err)
	}

	r := Verify(dir)
	if r.Err != nil {
		t.Fatalf("clean dir: %v\n%s", r.Err, r)
	}
	if r.LastSeq != uint64(len(ops)) || r.TornTail {
		t.Fatalf("clean dir: lastSeq=%d torn=%v", r.LastSeq, r.TornTail)
	}

	// Tear the final segment's tail: reported, still recoverable, and the
	// file must NOT be modified.
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-2); err != nil {
		t.Fatal(err)
	}
	sizeBefore := st.Size() - 2
	r = Verify(dir)
	if r.Err != nil {
		t.Fatalf("torn tail should be recoverable: %v", r.Err)
	}
	if !r.TornTail {
		t.Fatal("torn tail not reported")
	}
	st2, _ := os.Stat(path)
	if st2.Size() != sizeBefore {
		t.Fatal("Verify modified the segment")
	}

	// Mid-stream damage flips the verdict.
	data, _ := os.ReadFile(filepath.Join(dir, segName(1)))
	data[walHdrLen+frameHdr+1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	r = Verify(dir)
	if r.Err == nil {
		t.Fatalf("corrupt first segment not flagged:\n%s", r)
	}
}
