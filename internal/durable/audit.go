package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"fiat/internal/artifact"
	"fiat/internal/core"
)

// The audit segment keeps the proxy's audit log beside the snapshots, so a
// checkpoint writes only the entries added since the previous one instead
// of re-encoding the whole history into every snapshot. The file, audit.seg,
// is a run of chunks framed like WAL records:
//
//	[u32 payload length][u32 CRC32C(payload)][payload]
//
// where a payload is whole audit entries back to back in the proxy image's
// entry encoding (core.Proxy.AppendLogEntries). A checkpoint appends one
// chunk — more when the new entries pass the WAL's record cap — at the
// covered end, fsyncs it, and only then writes the snapshot whose header
// records the new segment length. The newest snapshot's recorded length is
// the covered prefix. It holds acknowledged history, so anything short or
// corrupt there fails recovery closed. Bytes past it belong to a checkpoint
// whose snapshot never landed; recovery truncates them, and WAL replay
// re-creates the entries they held.
const auditName = "audit.seg"

// auditChunkCap caps one chunk's payload at the WAL's record cap (tests
// lower it to exercise the split).
var auditChunkCap = maxRecByte

// auditScan is the parsed covered prefix of an audit segment.
type auditScan struct {
	chunks  [][]byte // chunk payloads, in file order
	entries []core.LogEntry
}

// readAudit parses the first covered bytes of an audit segment: every chunk
// must frame and checksum cleanly, end at or before covered, and hold whole
// entries that decode. Bytes past covered are not read.
func readAudit(data []byte, covered int64) (*auditScan, error) {
	if covered < 0 || covered > int64(len(data)) {
		return nil, fmt.Errorf("%w: audit segment holds %d bytes, snapshot covers %d", ErrCorrupt, len(data), covered)
	}
	sc := &auditScan{}
	for off := int64(0); off < covered; {
		payload, ok := readFrame(data[off:covered], 1)
		if !ok {
			return nil, fmt.Errorf("%w: audit segment corrupt at offset %d", ErrCorrupt, off)
		}
		sc.chunks = append(sc.chunks, payload)
		off += int64(frameHdr + len(payload))
	}
	var err error
	if sc.entries, err = core.DecodeLogEntries(sc.chunks); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return sc, nil
}

// loadAudit reads dir's audit segment and parses its covered prefix. A
// missing segment reads as empty. The segment is mapped like the snapshot
// (artifact.MapFile) rather than read onto the heap: the decoded entries
// copy their strings out, so nothing aliases the mapping, and a restart
// does not hold a second heap copy of the whole history while it decodes.
func loadAudit(dir string, covered int64) (*auditScan, error) {
	data, _, err := artifact.MapFile(filepath.Join(dir, auditName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return readAudit(data, covered)
}

// openAudit opens dir's audit segment for checkpoint appends, cutting any
// bytes past the covered length.
func openAudit(dir string, covered int64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, auditName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(covered); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// appendAuditFrames appends audit entries [from, to) to b as chunks of at
// most auditChunkCap payload bytes each.
func appendAuditFrames(b []byte, p *core.Proxy, from, to int) ([]byte, error) {
	for from < to {
		start, end := len(b), to
		for {
			b = p.AppendLogEntries(append(b[:start], make([]byte, frameHdr)...), from, end)
			if len(b)-start-frameHdr <= auditChunkCap {
				break
			}
			if end-from == 1 {
				return b[:start], fmt.Errorf("durable: audit entry %d alone exceeds the %d-byte chunk cap", from, auditChunkCap)
			}
			end = from + (end-from)/2
		}
		putFrameHeader(b[start:])
		from = end
	}
	return b, nil
}

// appendAudit writes the entries added since the last checkpoint, [m.auditN,
// n), at the covered end of the audit segment and syncs them. It returns
// the segment length the next snapshot covers. A KillMidAudit crash leaves
// half of the first chunk written.
func (m *Manager) appendAudit(n int) (int64, error) {
	var err error
	if m.chunk, err = appendAuditFrames(m.chunk[:0], m.proxy, m.auditN, n); err != nil {
		return 0, err
	}
	if m.cfg.Kill.firesCheckpoint(KillMidAudit, m.checkpoints) {
		half := 0
		if len(m.chunk) > 0 {
			half = (frameHdr + int(binary.LittleEndian.Uint32(m.chunk))) / 2
		}
		m.audit.WriteAt(m.chunk[:half], m.auditLen)
		return 0, ErrCrashed
	}
	if len(m.chunk) == 0 {
		return m.auditLen, nil
	}
	if _, err := m.audit.WriteAt(m.chunk, m.auditLen); err != nil {
		return 0, err
	}
	if err := m.audit.Sync(); err != nil {
		return 0, err
	}
	return m.auditLen + int64(len(m.chunk)), nil
}
