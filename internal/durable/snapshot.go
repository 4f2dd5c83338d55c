package durable

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"fiat/internal/artifact"
	"fiat/internal/wire"
)

// On-disk snapshot format. A snapshot is the proxy's serialized state as of
// one WAL sequence number, written to snap-%016x.snap named by that seq. Its
// body is the image core.Proxy.AppendStateDetached writes: everything but
// the audit-log entries, which live in the audit segment (audit.go) up to
// the length the header records. Writes go through a .tmp file and a
// rename, so a final-named snapshot is either whole or absent — a crash
// mid-write leaves only a tmp, which recovery ignores and removes.
//
// Header layout (little-endian):
//
//	[8]  magic "FIATSNAP"
//	u16  SnapshotVersion
//	u64  seq       — WAL position the body reflects
//	i64  wallNanos — clock instant the snapshot was taken at
//	u32  configSum — the proxy's ConfigChecksum, duplicated for inspection
//	u32  bodyCRC   — CRC32C of the body
//	u64  bodyLen
//	u64  auditLen  — bytes of the audit segment the body's log covers (v3)
//	[6]  zero padding (v2) — the body starts at file offset 56, a multiple
//	     of 8, so the proxy image's aligned artifact sections are aligned
//	     in the mmap'd file too
//	[...] body
const (
	snapMagic  = "FIATSNAP"
	snapHdrLen = 8 + 2 + 8 + 8 + 4 + 4 + 8 + 8 + 6
)

// SnapshotVersion versions the snapshot container format. v2 padded the
// header so the body starts 8-byte aligned — the zero-copy artifact load
// aliases compiled arenas straight out of the mapped snapshot, and
// alignment in the file is what makes the aliases cheap (misalignment falls
// back to copying, never to corruption). v3 moved the audit-log entries out
// of the body into the append-only audit segment and records the segment
// length the snapshot covers.
const SnapshotVersion uint16 = 3

// SnapshotHeader is the decoded snapshot metadata.
type SnapshotHeader struct {
	Version   uint16
	Seq       uint64
	Time      time.Time
	ConfigSum uint32
	BodyCRC   uint32
	BodyLen   uint64
	AuditLen  uint64
}

func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSnapshots returns the snapshot seqs present in dir, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if seq, ok := parseSnapName(e.Name()); ok {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// putSnapshotHeader fills the header of a snapshot image whose body already
// follows the snapHdrLen bytes reserved for it. It is the one header writer:
// checkpoints encode the proxy image straight after the reservation and call
// this in place, so the body is never copied.
func putSnapshotHeader(img []byte, seq uint64, at time.Time, configSum uint32, auditLen int64) {
	body := img[snapHdrLen:]
	h := img[:0:snapHdrLen]
	h = append(h, snapMagic...)
	h = wire.AppendU16(h, SnapshotVersion)
	h = wire.AppendU64(h, seq)
	h = wire.AppendI64(h, at.UnixNano())
	h = wire.AppendU32(h, configSum)
	h = wire.AppendU32(h, crc32.Checksum(body, walCastagnoli))
	h = wire.AppendU64(h, uint64(len(body)))
	h = wire.AppendU64(h, uint64(auditLen))
	_ = append(h, 0, 0, 0, 0, 0, 0) // pad the header to 56 so the body is 8-aligned
}

// DecodeSnapshotHeader parses and validates a snapshot's fixed header,
// returning the header and the remaining bytes (the body plus anything
// after it). It does not verify the body checksum — see decodeSnapshot.
func DecodeSnapshotHeader(data []byte) (SnapshotHeader, []byte, error) {
	if len(data) < snapHdrLen || string(data[:8]) != snapMagic {
		return SnapshotHeader{}, nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	rd := wire.NewReader(data[8:])
	h := SnapshotHeader{
		Version:   rd.U16(),
		Seq:       rd.U64(),
		Time:      time.Unix(0, rd.I64()).UTC(),
		ConfigSum: rd.U32(),
		BodyCRC:   rd.U32(),
		BodyLen:   rd.U64(),
		AuditLen:  rd.U64(),
	}
	rd.Take(6) // header padding
	if err := rd.Err(); err != nil {
		return SnapshotHeader{}, nil, fmt.Errorf("%w: snapshot header: %v", ErrCorrupt, err)
	}
	if h.Version != SnapshotVersion {
		return SnapshotHeader{}, nil, fmt.Errorf("%w: snapshot version %d, want %d", ErrCorrupt, h.Version, SnapshotVersion)
	}
	if h.AuditLen > math.MaxInt64 {
		return SnapshotHeader{}, nil, fmt.Errorf("%w: snapshot covers %d audit bytes", ErrCorrupt, h.AuditLen)
	}
	if h.BodyLen > uint64(rd.Len()) {
		return SnapshotHeader{}, nil, fmt.Errorf("%w: snapshot body truncated (%d of %d bytes)", ErrCorrupt, rd.Len(), h.BodyLen)
	}
	return h, rd.Rest(), nil
}

// decodeSnapshot fully validates a snapshot image and returns its header and
// body.
func decodeSnapshot(data []byte) (SnapshotHeader, []byte, error) {
	h, rest, err := DecodeSnapshotHeader(data)
	if err != nil {
		return SnapshotHeader{}, nil, err
	}
	body := rest[:h.BodyLen]
	if got := crc32.Checksum(body, walCastagnoli); got != h.BodyCRC {
		return SnapshotHeader{}, nil, fmt.Errorf("%w: snapshot body checksum %08x, header says %08x", ErrCorrupt, got, h.BodyCRC)
	}
	if uint64(len(rest)) != h.BodyLen {
		return SnapshotHeader{}, nil, fmt.Errorf("%w: %d bytes after snapshot body", ErrCorrupt, uint64(len(rest))-h.BodyLen)
	}
	return h, body, nil
}

// writeSnapshot atomically persists a whole snapshot image (header filled by
// putSnapshotHeader) as of WAL position seq: tmp file, fsync, rename,
// directory fsync. A KillMidSnapshot crash leaves only a partial tmp.
func writeSnapshot(dir string, seq uint64, img []byte, kill *KillSpec, checkpoint int) error {
	final := filepath.Join(dir, snapName(seq))
	tmp := final + ".tmp"
	if kill.firesCheckpoint(KillMidSnapshot, checkpoint) {
		// Crash mid-write: half the image reaches the tmp file, the rename
		// never happens.
		if err := os.WriteFile(tmp, img[:len(img)/2], 0o644); err != nil {
			return err
		}
		return ErrCrashed
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadLatestSnapshot finds the newest final-named snapshot and validates it.
// Returns a zero header and nil body when no snapshot exists. A corrupt
// newest snapshot fails closed: the durable contract is that a final-named
// snapshot is whole, so damage there means the store cannot be trusted.
//
// The file is memory-mapped where the platform supports it (one ReadFile
// otherwise), and the returned body aliases that single load — restore
// builds its artifact views directly over these bytes and binds restored
// arrival state into them. The mapping is never torn down (see artifact.MapFile), so views
// stay valid even after the manager closes or the snapshot is pruned.
func loadLatestSnapshot(dir string) (SnapshotHeader, []byte, error) {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return SnapshotHeader{}, nil, err
	}
	if len(seqs) == 0 {
		return SnapshotHeader{}, nil, nil
	}
	newest := seqs[len(seqs)-1]
	data, _, err := artifact.MapFile(filepath.Join(dir, snapName(newest)))
	if err != nil {
		return SnapshotHeader{}, nil, err
	}
	h, body, err := decodeSnapshot(data)
	if err != nil {
		return SnapshotHeader{}, nil, fmt.Errorf("%s: %w", snapName(newest), err)
	}
	if h.Seq != newest {
		return SnapshotHeader{}, nil, fmt.Errorf("%w: snapshot %s carries seq %d", ErrCorrupt, snapName(newest), h.Seq)
	}
	return h, body, nil
}

// removeTempFiles clears abandoned .tmp artifacts (mid-snapshot crashes).
func removeTempFiles(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// pruneSnapshots deletes every snapshot older than keep.
func pruneSnapshots(dir string, keep uint64) error {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s < keep {
			if err := os.Remove(filepath.Join(dir, snapName(s))); err != nil {
				return err
			}
		}
	}
	return nil
}
