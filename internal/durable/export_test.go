package durable

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"fiat/internal/core"
)

// appendFrame is the reference WAL framing the manager's in-place framing
// (appendOpFrame) is held against: header appended first, payload copied
// after it.
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, walCastagnoli))
	return append(b, payload...)
}

// encodeSnapshot is the reference snapshot image built from a body held
// elsewhere; checkpoints encode the body in place behind the header instead.
func encodeSnapshot(seq uint64, at time.Time, configSum uint32, auditLen int64, body []byte) []byte {
	img := append(make([]byte, snapHdrLen, snapHdrLen+len(body)), body...)
	putSnapshotHeader(img, seq, at, configSum, auditLen)
	return img
}

// readCheckpoint loads what Open restores from: the newest snapshot's
// header and body, and the audit entries its covered prefix holds.
func readCheckpoint(dir string) (SnapshotHeader, []byte, []core.LogEntry, error) {
	h, body, err := loadLatestSnapshot(dir)
	if err != nil {
		return h, nil, nil, err
	}
	sc, err := loadAudit(dir, int64(h.AuditLen))
	if err != nil {
		return h, nil, nil, err
	}
	return h, body, sc.entries, nil
}

// setAuditChunkCap lowers the audit chunk cap for one test.
func setAuditChunkCap(t testing.TB, n int) {
	old := auditChunkCap
	auditChunkCap = n
	t.Cleanup(func() { auditChunkCap = old })
}

// Exports for the external test package's manager harness.
var (
	AppendFrame      = appendFrame
	AuditName        = auditName
	FrameHdr         = frameHdr
	ReadCheckpoint   = readCheckpoint
	SegName          = segName
	SetAuditChunkCap = setAuditChunkCap
	SnapHdrLen       = snapHdrLen
	SnapName         = snapName
	WALMagic         = walMagic
)
