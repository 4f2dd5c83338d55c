// Package durable gives the FIAT proxy crash-consistent state: a
// write-ahead log of input operations with per-record checksums, atomic
// arena snapshots of the proxy image with its audit log kept in an
// append-only segment beside them, and a recovery path that rebuilds a
// byte-identical proxy from snapshot + audit segment + WAL replay.
//
// The central design choice is to log *inputs*, not effects. The proxy's
// pipeline is deterministic given its configuration, its state, and the
// timestamped operation stream (the engine/chaos oracles prove decisions,
// audit logs, stats, and obs snapshots are replay- and shard-invariant), so
// the WAL only needs to record what was fed in — packet batches, attestation
// payloads, sweeps, channel transitions, flushes — each stamped with the
// clock instant it was applied at. Recovery re-applies the surviving suffix
// with the clock pinned to each record's instant and necessarily regenerates
// the exact state, which is what lets the crash oracle demand byte-for-byte
// reconciliation instead of "close enough".
package durable

import (
	"fmt"
	"time"

	"fiat/internal/core"
	"fiat/internal/flows"
	"fiat/internal/wire"
)

// Kind tags one logged proxy input operation. Values are part of the
// on-disk format: never renumber, only append.
type Kind uint8

const (
	// OpBatch is one core.ProcessBatch call (its packets, in order).
	OpBatch Kind = 1
	// OpAttestation is one core.HandleAttestation call (the raw payload).
	OpAttestation Kind = 2
	// OpSweep is one core.SweepPending call.
	OpSweep Kind = 3
	// OpChannelDown is one core.AttestationChannelDown call.
	OpChannelDown Kind = 4
	// OpChannelUp is one core.AttestationChannelUp call.
	OpChannelUp Kind = 5
	// OpFlush is one core.FlushEvent call (the device name).
	OpFlush Kind = 6
)

// Op is one durably logged proxy input. Seq is the 1-based position in the
// manager's total operation order; Time is the clock instant the operation
// was (and on replay, will again be) applied at.
type Op struct {
	Seq  uint64
	Kind Kind
	Time time.Time

	Batch   []core.PacketIn // OpBatch
	Payload []byte          // OpAttestation
	Device  string          // OpFlush
}

// AppendOp serializes one operation payload (the part protected by the WAL
// record checksum).
func AppendOp(b []byte, op *Op) []byte {
	b = wire.AppendU64(b, op.Seq)
	b = wire.AppendU8(b, uint8(op.Kind))
	b = wire.AppendI64(b, op.Time.UnixNano())
	switch op.Kind {
	case OpBatch:
		b = wire.AppendU32(b, uint32(len(op.Batch)))
		for i := range op.Batch {
			p := &op.Batch[i]
			b = wire.AppendString(b, p.Device)
			b = flows.AppendRecord(b, &p.Rec)
			b = wire.AppendString(b, p.Peer)
		}
	case OpAttestation:
		b = wire.AppendBytes(b, op.Payload)
	case OpFlush:
		b = wire.AppendString(b, op.Device)
	}
	return b
}

// EncodeOp returns the serialized operation payload.
func EncodeOp(op *Op) []byte { return AppendOp(nil, op) }

// opMinBytes is the fixed prefix every operation payload carries:
// u64 seq + u8 kind + i64 time.
const opMinBytes = 8 + 1 + 8

// DecodeOp parses one operation payload. The whole payload must be
// consumed: a checksummed record with trailing garbage is a codec bug or a
// forged frame, and either must fail recovery rather than replay
// half-understood input.
func DecodeOp(data []byte) (Op, error) {
	rd := wire.NewReader(data)
	op := Op{
		Seq:  rd.U64(),
		Kind: Kind(rd.U8()),
		Time: time.Unix(0, rd.I64()).UTC(),
	}
	if err := rd.Err(); err != nil {
		return Op{}, fmt.Errorf("durable: op header: %w", err)
	}
	switch op.Kind {
	case OpBatch:
		n := int(rd.U32())
		if rd.Err() != nil || n > rd.Len() {
			return Op{}, fmt.Errorf("durable: op batch: %w", wire.ErrTruncated)
		}
		op.Batch = make([]core.PacketIn, 0, n)
		for i := 0; i < n; i++ {
			device := rd.String()
			rec, err := flows.ReadRecord(rd)
			if err != nil {
				return Op{}, fmt.Errorf("durable: op batch record %d: %w", i, err)
			}
			op.Batch = append(op.Batch, core.PacketIn{Device: device, Rec: rec, Peer: rd.String()})
		}
	case OpAttestation:
		op.Payload = rd.Bytes()
	case OpSweep, OpChannelDown, OpChannelUp:
		// No body.
	case OpFlush:
		op.Device = rd.String()
	default:
		return Op{}, fmt.Errorf("durable: unknown op kind %d", op.Kind)
	}
	if err := rd.Err(); err != nil {
		return Op{}, fmt.Errorf("durable: op kind %d: %w", op.Kind, err)
	}
	if rd.Len() != 0 {
		return Op{}, fmt.Errorf("durable: op kind %d: %d trailing bytes", op.Kind, rd.Len())
	}
	return op, nil
}
