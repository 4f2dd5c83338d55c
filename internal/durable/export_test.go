package durable

import (
	"encoding/binary"
	"hash/crc32"
	"time"
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
func encodeSnapshot(seq uint64, at time.Time, configSum uint32, body []byte) []byte {
	img := append(make([]byte, snapHdrLen, snapHdrLen+len(body)), body...)
	putSnapshotHeader(img, seq, at, configSum)
	return img
}

// Exports for the external test package's manager harness.
var (
	AppendFrame    = appendFrame
	EncodeSnapshot = encodeSnapshot
	SegName        = segName
	SnapName       = snapName
	WALMagic       = walMagic
)
