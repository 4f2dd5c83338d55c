package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"fiat/internal/core"
	"fiat/internal/flows"
	"fiat/internal/simclock"
	"fiat/internal/wire"
)

// fuzzSeedOps builds the representative op payloads committed as the fuzz
// seed corpus: one of each kind, plus a batch stressing every record field.
func fuzzSeedOps() map[string][]byte {
	at := simclock.Epoch.Add(90 * time.Second)
	rec := flows.Record{
		Time: at, Size: 1500, Proto: "udp", Dir: flows.DirInbound,
		RemoteIP: netip.MustParseAddr("2001:db8::17"), RemoteDomain: "api.vendor.example",
		LocalPort: 65535, RemotePort: 53, TCPFlags: 0xff, TLSVersion: 0x0304,
		Category: flows.CategoryManual,
	}
	return map[string][]byte{
		"batch": EncodeOp(&Op{Seq: 1, Kind: OpBatch, Time: at, Batch: []core.PacketIn{
			{Device: "plug", Rec: rec, Peer: "hub"},
			{Device: "cam", Rec: flows.Record{Time: at, Size: 1, Proto: "tcp", Dir: flows.DirOutbound,
				RemoteIP: netip.MustParseAddr("10.0.0.1"), Category: flows.CategoryControl}},
		}}),
		"empty_batch": EncodeOp(&Op{Seq: 2, Kind: OpBatch, Time: at}),
		"attestation": EncodeOp(&Op{Seq: 3, Kind: OpAttestation, Time: at, Payload: bytes.Repeat([]byte{0xa5}, 96)}),
		"sweep":       EncodeOp(&Op{Seq: 4, Kind: OpSweep, Time: at}),
		"chan_down":   EncodeOp(&Op{Seq: 5, Kind: OpChannelDown, Time: at}),
		"chan_up":     EncodeOp(&Op{Seq: 6, Kind: OpChannelUp, Time: at}),
		"flush":       EncodeOp(&Op{Seq: 7, Kind: OpFlush, Time: at, Device: "plug"}),
		"truncated":   EncodeOp(&Op{Seq: 8, Kind: OpSweep, Time: at})[:11],
		"bad_kind":    append(EncodeOp(&Op{Seq: 9, Kind: OpSweep, Time: at})[:8], 0xee),
	}
}

// fuzzSeedHeaders builds the FuzzSnapshotHeader seeds at the current
// SnapshotVersion: a whole image, a header-only image with an empty body
// (both accepted), and three rejects.
func fuzzSeedHeaders() map[string][]byte {
	at := simclock.Epoch.Add(time.Hour)
	body := []byte("proxy image bytes")
	img := encodeSnapshot(42, at, 0xfeedf00d, 4096, body)
	return map[string][]byte{
		"whole":      img,
		"header":     encodeSnapshot(42, at, 0xfeedf00d, 0, nil),
		"short":      img[:snapHdrLen-5],
		"bad_magic":  append([]byte("NOTASNAP"), img[8:]...),
		"long_claim": append([]byte{}, img[:snapHdrLen]...), // bodyLen > rest
	}
}

// appendTestEntries is the reference encoding of audit entries, written out
// field by field: the proxy image's entry layout that audit chunks carry.
func appendTestEntries(b []byte, entries ...core.LogEntry) []byte {
	for _, e := range entries {
		b = wire.AppendI64(b, e.Time.UnixNano())
		b = wire.AppendString(b, e.Device)
		b = wire.AppendString(b, string(e.Reason))
		b = wire.AppendU8(b, uint8(e.Verdict))
		b = wire.AppendI64(b, int64(e.Packets))
	}
	return b
}

// fuzzSeedAudit builds the FuzzAuditSegment seeds: a whole three-chunk
// segment (accepted) and three rejects — a torn last chunk, a bad checksum
// on the middle chunk, and a length claim past the end of the file.
func fuzzSeedAudit() map[string][]byte {
	at := simclock.Epoch.Add(3 * time.Minute)
	chunks := [][]byte{
		appendTestEntries(nil,
			core.LogEntry{Time: at, Device: "plug", Reason: core.ReasonNoHuman, Verdict: core.Drop, Packets: 3},
			core.LogEntry{Time: at.Add(time.Second), Device: "cam", Reason: core.ReasonNonManual, Verdict: core.Allow, Packets: 12}),
		appendTestEntries(nil, core.LogEntry{Time: at.Add(time.Minute), Device: "plug", Reason: core.ReasonLateAttest, Verdict: core.Allow, Packets: 1}),
		appendTestEntries(nil, core.LogEntry{Time: at.Add(2 * time.Minute), Device: "lock", Reason: core.ReasonHumanOK, Verdict: core.Allow}),
	}
	var whole []byte
	var ends []int
	for _, c := range chunks {
		whole = appendFrame(whole, c)
		ends = append(ends, len(whole))
	}
	badCRC := append([]byte(nil), whole...)
	badCRC[ends[0]+4] ^= 0xff
	longClaim := append([]byte(nil), whole[:ends[1]]...)
	longClaim = binary.LittleEndian.AppendUint32(longClaim, 1<<20)
	longClaim = append(longClaim, whole[ends[1]+4:]...)
	return map[string][]byte{
		"whole":      whole,
		"torn":       whole[:len(whole)-7],
		"bad_crc":    badCRC,
		"long_claim": longClaim,
	}
}

// fuzzSeedFile is a committed seed file's content for one []byte input.
func fuzzSeedFile(b []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b))))
}

// TestFuzzCorpusCommitted keeps the fuzz seed corpus in lockstep with the
// codec. With FIAT_WRITE_FUZZ_CORPUS=1 it (re)writes the seed files;
// otherwise it fails if any committed seed is missing or differs from what
// its generator makes today. The header seeds that stand for accepted
// images must decode, so a format change cannot strand the corpus at the
// version check.
func TestFuzzCorpusCommitted(t *testing.T) {
	for _, name := range []string{"whole", "header"} {
		if _, _, err := decodeSnapshot(fuzzSeedHeaders()[name]); err != nil {
			t.Errorf("FuzzSnapshotHeader seed %s does not decode: %v", name, err)
		}
	}
	for name, b := range fuzzSeedAudit() {
		if _, err := readAudit(b, int64(len(b))); (err == nil) != (name == "whole") {
			t.Errorf("FuzzAuditSegment seed %s: readAudit err = %v", name, err)
		}
	}
	write := os.Getenv("FIAT_WRITE_FUZZ_CORPUS") == "1"
	sets := map[string]map[string][]byte{
		"FuzzWALRecord":      fuzzSeedOps(),
		"FuzzSnapshotHeader": fuzzSeedHeaders(),
		"FuzzAuditSegment":   fuzzSeedAudit(),
	}
	for fuzzName, seeds := range sets {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if write {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for name, b := range seeds {
			path := filepath.Join(dir, name)
			if write {
				if err := os.WriteFile(path, fuzzSeedFile(b), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("committed fuzz seed missing (regenerate with FIAT_WRITE_FUZZ_CORPUS=1): %v", err)
			}
			if !bytes.Equal(got, fuzzSeedFile(b)) {
				t.Errorf("committed fuzz seed %s/%s is stale (regenerate with FIAT_WRITE_FUZZ_CORPUS=1)", fuzzName, name)
			}
		}
	}
}

// FuzzWALRecord hammers the op codec with arbitrary bytes: decoding must
// never panic, and anything that decodes must re-encode byte-identically —
// the WAL replay path depends on the codec being a bijection on valid
// payloads. The manager's in-place framing, into a buffer reused across
// inputs as the manager reuses it across appends, must equal the reference
// framing of the encoded op.
func FuzzWALRecord(f *testing.F) {
	for _, b := range fuzzSeedOps() {
		f.Add(b)
	}
	var frame []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := DecodeOp(data)
		if err != nil {
			return
		}
		enc := EncodeOp(&op)
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, enc)
		}
		ref := appendFrame(nil, data)
		if _, ok := walFrameSeq(ref); !ok {
			t.Fatal("framed valid op lost its sequence number")
		}
		frame = appendOpFrame(frame[:0], &op)
		if !bytes.Equal(frame, ref) {
			t.Fatalf("in-place frame differs from the reference:\n got: %x\nwant: %x", frame, ref)
		}
	})
}

// FuzzSnapshotHeader hammers the snapshot container parser: no panics, and
// every accepted header must satisfy its own invariants.
func FuzzSnapshotHeader(f *testing.F) {
	for _, b := range fuzzSeedHeaders() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, rest, err := DecodeSnapshotHeader(data)
		if err != nil {
			return
		}
		if h.Version != SnapshotVersion {
			t.Fatalf("accepted header with version %d", h.Version)
		}
		if h.BodyLen > uint64(len(rest)) {
			t.Fatalf("accepted header claiming %d body bytes with %d available", h.BodyLen, len(rest))
		}
		// Full validation must also terminate without panicking.
		decodeSnapshot(data)
	})
}

// FuzzAuditSegment hammers the audit-segment reader with the whole input as
// the covered prefix: no panics, accepted chunks re-frame to exactly the
// input, and the entries it accepts decode from those chunks and re-encode
// to their bytes — the codec recovery restores the audit log through.
func FuzzAuditSegment(f *testing.F) {
	for _, b := range fuzzSeedAudit() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := readAudit(data, int64(len(data)))
		if err != nil {
			return
		}
		var reframed []byte
		var entries []core.LogEntry
		for _, c := range sc.chunks {
			reframed = appendFrame(reframed, c)
			ce, err := core.DecodeLogEntries([][]byte{c})
			if err != nil {
				t.Fatalf("accepted chunk does not decode: %v", err)
			}
			if enc := appendTestEntries(nil, ce...); !bytes.Equal(enc, c) {
				t.Fatalf("chunk entries re-encode differently:\n in: %x\nout: %x", c, enc)
			}
			entries = append(entries, ce...)
		}
		if !bytes.Equal(reframed, data) {
			t.Fatalf("accepted chunks re-frame differently:\n in: %x\nout: %x", data, reframed)
		}
		if len(entries) != len(sc.entries) {
			t.Fatalf("reader returned %d entries, its chunks hold %d", len(sc.entries), len(entries))
		}
		for i := range entries {
			if entries[i] != sc.entries[i] {
				t.Fatalf("entry %d: reader %+v, chunk %+v", i, sc.entries[i], entries[i])
			}
		}
	})
}
