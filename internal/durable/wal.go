package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk WAL format. A log is a sequence of segment files named
// wal-%016x.seg after the sequence number of their first record. Each
// segment opens with an 8-byte magic; records follow back to back:
//
//	[u32 payload length][u32 CRC32C(payload)][payload]
//
// where the payload is one serialized Op (see record.go). Lengths and
// checksums are little-endian. The tail of the *final* segment is allowed to
// be torn — a crash mid-append leaves a partial frame, which recovery
// truncates away; any damage before the tail, or in a non-final segment,
// means bytes the proxy already acknowledged were corrupted afterwards, and
// recovery fails closed instead of silently dropping admitted input.
const (
	walMagic   = "FIATWAL1"
	walHdrLen  = len(walMagic)
	frameHdr   = 8       // u32 length + u32 crc
	maxRecByte = 1 << 24 // 16 MiB sanity cap on one record
)

var walCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks damage recovery must not repair: a checksum or framing
// failure before the final segment's tail, a sequence discontinuity, or a
// corrupt snapshot.
var ErrCorrupt = errors.New("durable: state corrupt")

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.seg", firstSeq) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSegments returns the segment first-seqs present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if seq, ok := parseSegName(e.Name()); ok {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// appendOpFrame appends op to b as one finished WAL frame. The payload is
// encoded straight after a reserved header, which is then filled in place,
// so a reused b makes framing allocation-free once it has grown.
func appendOpFrame(b []byte, op *Op) []byte {
	start := len(b)
	b = AppendOp(append(b, make([]byte, frameHdr)...), op)
	putFrameHeader(b[start:])
	return b
}

// putFrameHeader fills the header reserved at the start of frame for the
// payload that follows it.
func putFrameHeader(frame []byte) {
	payload := frame[frameHdr:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, walCastagnoli))
}

// segScan is the outcome of scanning one segment file.
type segScan struct {
	firstSeq uint64 // from the file name
	payloads [][]byte
	seqs     []uint64
	tornAt   int64 // byte offset of a torn tail, -1 if clean
	tornHdr  bool  // the segment header itself is torn
}

// scanSegment reads one segment. final selects torn-tail tolerance; when
// repair is also set, the torn tail (or a torn header) is physically
// truncated away so the segment can be appended to again.
func scanSegment(path string, final, repair bool) (*segScan, error) {
	name := filepath.Base(path)
	firstSeq, ok := parseSegName(name)
	if !ok {
		return nil, fmt.Errorf("%w: bad segment name %q", ErrCorrupt, name)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc := &segScan{firstSeq: firstSeq, tornAt: -1}
	if len(data) < walHdrLen || string(data[:walHdrLen]) != walMagic {
		if !final {
			return nil, fmt.Errorf("%w: segment %s has a bad header", ErrCorrupt, name)
		}
		// A crash between creating the rotation target and writing its
		// header leaves a torn (or short) header on the final segment; the
		// file holds no admitted records, so it is droppable tail.
		sc.tornHdr = true
		sc.tornAt = 0
		if repair {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
		}
		return sc, nil
	}
	off := int64(walHdrLen)
	for int(off) < len(data) {
		payload, ok := readFrame(data[off:], opMinBytes)
		if !ok {
			if !final {
				return nil, fmt.Errorf("%w: segment %s corrupt at offset %d", ErrCorrupt, name, off)
			}
			// A genuine tear is the physical end of the file: a crash cut an
			// append short, and nothing follows it. If an intact frame parses
			// anywhere after the damage point, this is mid-stream corruption
			// of records the proxy already acknowledged — never repairable.
			if hasValidFrameAfter(data, off) {
				return nil, fmt.Errorf("%w: segment %s corrupt at offset %d with intact records after it", ErrCorrupt, name, off)
			}
			sc.tornAt = off
			if repair {
				if err := os.Truncate(path, off); err != nil {
					return nil, err
				}
			}
			return sc, nil
		}
		seq := binary.LittleEndian.Uint64(payload)
		sc.payloads = append(sc.payloads, payload)
		sc.seqs = append(sc.seqs, seq)
		off += int64(frameHdr) + int64(len(payload))
	}
	return sc, nil
}

// readFrame parses the frame at the start of rest — [u32 length][u32
// CRC32C][payload], the framing WAL records and audit chunks share — and
// returns its payload. ok is false when the header is short, the length is
// below minLen or above maxRecByte or runs past rest, or the checksum fails.
func readFrame(rest []byte, minLen uint32) (payload []byte, ok bool) {
	if len(rest) < frameHdr {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(rest)
	if n < minLen || n > maxRecByte || int(n) > len(rest)-frameHdr {
		return nil, false
	}
	payload = rest[frameHdr : frameHdr+int(n)]
	if crc32.Checksum(payload, walCastagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
		return nil, false
	}
	return payload, true
}

// hasValidFrameAfter reports whether any byte offset strictly after from
// starts a frame whose checksum validates. CRC32C makes an accidental match
// on garbage vanishingly unlikely, so a hit means real records survive past
// the damage point. Only runs on the torn-tail recovery path.
func hasValidFrameAfter(data []byte, from int64) bool {
	for off := from + 1; off+int64(frameHdr) <= int64(len(data)); off++ {
		if _, ok := readFrame(data[off:], opMinBytes); ok {
			return true
		}
	}
	return false
}

// walScan is the outcome of scanning a whole log directory.
type walScan struct {
	payloads  [][]byte // record payloads in seq order
	firstSeq  uint64   // seq of the first surviving record (0 if none)
	lastSeq   uint64   // seq of the last surviving record (0 if none)
	truncated int      // torn artifacts dropped from the final segment
	appendSeg uint64   // segment to continue appending to (0 = start fresh)
}

// scanWAL reads every segment in dir, enforcing intra- and inter-segment
// sequence continuity. With repair set, torn tails are truncated in place.
func scanWAL(dir string, repair bool) (*walScan, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	out := &walScan{}
	for i, first := range segs {
		final := i == len(segs)-1
		sc, err := scanSegment(filepath.Join(dir, segName(first)), final, repair)
		if err != nil {
			return nil, err
		}
		if sc.tornAt >= 0 {
			out.truncated++
		}
		if sc.tornHdr {
			// Dropped rotation target; the previous segment (if any) stays
			// the append target.
			continue
		}
		if len(sc.seqs) > 0 && sc.seqs[0] != first {
			return nil, fmt.Errorf("%w: segment %s starts at seq %d", ErrCorrupt, segName(first), sc.seqs[0])
		}
		for j, seq := range sc.seqs {
			if out.lastSeq != 0 && seq != out.lastSeq+1 {
				return nil, fmt.Errorf("%w: seq %d follows %d in segment %s", ErrCorrupt, seq, out.lastSeq, segName(first))
			}
			if out.firstSeq == 0 {
				out.firstSeq = seq
			}
			out.lastSeq = seq
			out.payloads = append(out.payloads, sc.payloads[j])
			_ = j
		}
		if len(sc.seqs) == 0 && !final {
			return nil, fmt.Errorf("%w: empty non-final segment %s", ErrCorrupt, segName(first))
		}
		out.appendSeg = first
	}
	return out, nil
}

// wal is the append side of the log: one open segment file plus rotation
// and sync bookkeeping. It is not internally locked — the Manager serializes
// all calls under its own mutex.
type wal struct {
	dir      string
	segBytes int64
	mode     SyncMode

	f          *os.File // nil until the first append (or after Close)
	size       int64    // current segment size
	syncedSize int64    // bytes of the current segment known durable
	dirty      bool     // unsynced bytes exist

	kill *KillSpec // armed crash injection, nil in production
}

// openAppend positions the wal to continue an existing segment, or to start
// fresh when seg is 0.
func (w *wal) openAppend(seg uint64, nextSeq uint64) error {
	if seg == 0 {
		return nil // lazy-create on first append
	}
	path := filepath.Join(w.dir, segName(seg))
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if st.Size() == int64(walHdrLen) && seg != nextSeq {
		// An empty rotation target whose name no longer matches the next
		// sequence number cannot be appended to (names pin first seqs);
		// drop it and lazy-create.
		return os.Remove(path)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f, w.size, w.syncedSize = f, st.Size(), st.Size()
	return nil
}

// create starts a new segment named for firstSeq, with a synced header.
func (w *wal) create(firstSeq uint64) error {
	if w.kill.fires(KillMidRotate, firstSeq) {
		// Crash mid-rotation: the new segment exists with a torn header.
		f, err := os.OpenFile(filepath.Join(w.dir, segName(firstSeq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		f.Write([]byte(walMagic)[:3])
		f.Close()
		return ErrCrashed
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segName(firstSeq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	w.f, w.size, w.syncedSize, w.dirty = f, int64(walHdrLen), int64(walHdrLen), false
	return nil
}

// append writes one finished frame (see appendOpFrame), rotating first when
// the current segment is full. seq is the framed op's sequence number (used
// for kill points and rotation naming). The wal keeps no reference to frame.
func (w *wal) append(seq uint64, frame []byte) error {
	if w.f != nil && w.size+int64(len(frame)) > w.segBytes && w.size > int64(walHdrLen) {
		if err := w.sync(); err != nil {
			return err
		}
		w.f.Close()
		w.f = nil
		if err := w.create(seq); err != nil {
			return err
		}
	}
	if w.f == nil {
		if err := w.create(seq); err != nil {
			return err
		}
	}
	if w.kill.fires(KillMidAppend, seq) {
		// Crash mid-append: half the frame reaches the file.
		w.f.Write(frame[:len(frame)/2])
		w.f.Close()
		w.f = nil
		return ErrCrashed
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.size += int64(len(frame))
	w.dirty = true
	if w.kill.fires(KillAfterAppendUnsynced, seq) {
		// Crash after the write but before any sync: everything since the
		// last sync is lost page cache. Model it by truncating back to the
		// durable prefix.
		path := w.f.Name()
		w.f.Close()
		w.f = nil
		if err := os.Truncate(path, w.syncedSize); err != nil {
			return err
		}
		return ErrCrashed
	}
	if w.mode == SyncAlways {
		return w.sync()
	}
	return nil
}

// sync flushes the current segment to stable storage.
func (w *wal) sync() error {
	if w.f == nil || !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncedSize = w.size
	w.dirty = false
	return nil
}

// trimBefore deletes every closed segment fully covered by a snapshot at
// seq-1 — i.e. whose successor segment starts at or below seq. The open
// segment is never deleted; any pre-snapshot records it still holds are
// skipped at replay by their sequence numbers.
func (w *wal) trimBefore(seq uint64) error {
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= seq {
			if err := os.Remove(filepath.Join(w.dir, segName(segs[i]))); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
