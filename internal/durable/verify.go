package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fiat/internal/core"
)

// SnapshotInfo is one snapshot's verification result.
type SnapshotInfo struct {
	File      string
	Seq       uint64
	Time      time.Time
	ConfigSum uint32
	BodyLen   uint64
	Artifacts *core.StateArtifactInfo // artifact-section stats (nil when the body does not decode)
	Err       error                   // nil when the image validates
}

// SegmentInfo is one WAL segment's verification result.
type SegmentInfo struct {
	File     string
	FirstSeq uint64
	Records  int
	TornTail bool  // torn frame or header at the tail (repairable)
	Err      error // nil when the segment validates
}

// AuditInfo is the audit segment's verification result, read against the
// length the newest snapshot covers.
type AuditInfo struct {
	Present bool
	Chunks  int   // chunks in the covered prefix
	Entries int   // audit entries in those chunks
	Covered int64 // bytes the newest snapshot covers
	Beyond  int64 // bytes past the covered prefix, which recovery truncates
	Err     error // nil when the covered prefix validates
}

// VerifyReport is the outcome of an offline state-directory check.
type VerifyReport struct {
	Dir       string
	Snapshots []SnapshotInfo
	Audit     AuditInfo
	Segments  []SegmentInfo
	FirstSeq  uint64 // first surviving WAL record
	LastSeq   uint64 // last surviving WAL record
	TornTail  bool   // the final segment carries a repairable torn tail
	Err       error  // non-nil when recovery would fail closed
}

// String renders the report for fiat-analyze -verify-state.
func (r *VerifyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "state dir %s\n", r.Dir)
	if len(r.Snapshots) == 0 {
		b.WriteString("  no snapshots\n")
	}
	for _, s := range r.Snapshots {
		if s.Err != nil {
			fmt.Fprintf(&b, "  snapshot %s CORRUPT: %v\n", s.File, s.Err)
			continue
		}
		fmt.Fprintf(&b, "  snapshot %s seq=%d time=%s configSum=%08x body=%dB ok\n",
			s.File, s.Seq, s.Time.Format(time.RFC3339), s.ConfigSum, s.BodyLen)
		if s.Artifacts != nil {
			fmt.Fprintf(&b, "    artifacts: %s\n", s.Artifacts)
		}
	}
	switch a := &r.Audit; {
	case !a.Present:
		b.WriteString("  no audit segment\n")
	case a.Err != nil:
		fmt.Fprintf(&b, "  audit segment %s CORRUPT: %v\n", auditName, a.Err)
	default:
		fmt.Fprintf(&b, "  audit segment %s chunks=%d entries=%d covered=%dB ok\n", auditName, a.Chunks, a.Entries, a.Covered)
		if a.Beyond > 0 {
			fmt.Fprintf(&b, "    %dB beyond the newest snapshot (recovery truncates)\n", a.Beyond)
		}
	}
	if len(r.Segments) == 0 {
		b.WriteString("  no wal segments\n")
	}
	for _, s := range r.Segments {
		switch {
		case s.Err != nil:
			fmt.Fprintf(&b, "  segment %s CORRUPT: %v\n", s.File, s.Err)
		case s.TornTail:
			fmt.Fprintf(&b, "  segment %s records=%d torn tail (recovery truncates)\n", s.File, s.Records)
		default:
			fmt.Fprintf(&b, "  segment %s records=%d ok\n", s.File, s.Records)
		}
	}
	if r.LastSeq > 0 {
		fmt.Fprintf(&b, "  wal seq range [%d, %d]\n", r.FirstSeq, r.LastSeq)
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "  RESULT: recovery would FAIL CLOSED: %v\n", r.Err)
	} else {
		b.WriteString("  RESULT: recoverable\n")
	}
	return b.String()
}

// Verify performs a strictly read-only integrity check of a state
// directory: every snapshot's header, body checksum and proxy image (decoded
// by core.InspectStateArtifacts up to the registries, with the audit
// entries the snapshot covers), the audit segment's chunk framing,
// checksums and entries, and every WAL segment's framing, record checksums,
// and sequence continuity. It never truncates or repairs anything. The
// report's Err mirrors what Open would do: a torn final-segment tail and
// audit bytes past the newest snapshot are reported but recoverable;
// anything else corrupt fails closed.
func Verify(dir string) *VerifyReport {
	r := &VerifyReport{Dir: dir}
	setErr := func(err error) {
		if r.Err == nil {
			r.Err = err
		}
	}

	snaps, err := listSnapshots(dir)
	if err != nil {
		setErr(err)
		return r
	}
	auditData, err := os.ReadFile(filepath.Join(dir, auditName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		setErr(err)
		return r
	}
	r.Audit.Present = err == nil
	r.Audit.Beyond = int64(len(auditData))
	for i, seq := range snaps {
		newest := i == len(snaps)-1
		name := snapName(seq)
		info := SnapshotInfo{File: name, Seq: seq}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			info.Err = err
		} else if h, body, derr := decodeSnapshot(data); derr != nil {
			info.Err = derr
		} else {
			info.Time, info.ConfigSum, info.BodyLen = h.Time, h.ConfigSum, uint64(len(body))
			// Each snapshot is read with the audit prefix it covers; the
			// newest one's is the prefix recovery restores.
			covered := int64(h.AuditLen)
			sc, serr := readAudit(auditData, covered)
			if newest {
				r.Audit.Covered, r.Audit.Err = covered, serr
				if serr == nil {
					r.Audit.Chunks, r.Audit.Entries = len(sc.chunks), len(sc.entries)
					r.Audit.Beyond = int64(len(auditData)) - covered
				}
			}
			if h.Seq != seq {
				info.Err = fmt.Errorf("%w: header seq %d under name %s", ErrCorrupt, h.Seq, name)
			} else if serr != nil {
				info.Err = fmt.Errorf("audit segment: %w", serr)
			} else if arts, aerr := core.InspectStateArtifacts(body, sc.entries); aerr != nil {
				// The body is decoded by the same code RestoreState runs, so a
				// wrong version or any structural fault fails the snapshot
				// here exactly as it would fail Open.
				info.Err = fmt.Errorf("%w: %v", ErrCorrupt, aerr)
			} else {
				info.Artifacts = &arts
			}
		}
		// Only the newest snapshot gates recovery; older ones are about to
		// be pruned and may legally be damaged.
		if info.Err != nil && newest {
			setErr(fmt.Errorf("newest snapshot %s: %w", name, info.Err))
		}
		r.Snapshots = append(r.Snapshots, info)
	}

	segs, err := listSegments(dir)
	if err != nil {
		setErr(err)
		return r
	}
	var last uint64
	for i, first := range segs {
		final := i == len(segs)-1
		name := segName(first)
		info := SegmentInfo{File: name, FirstSeq: first}
		sc, err := scanSegment(filepath.Join(dir, name), final, false)
		if err != nil {
			info.Err = err
			setErr(err)
			r.Segments = append(r.Segments, info)
			continue
		}
		info.Records = len(sc.seqs)
		info.TornTail = sc.tornAt >= 0
		if final {
			r.TornTail = info.TornTail
		}
		if !sc.tornHdr {
			if len(sc.seqs) > 0 && sc.seqs[0] != first {
				e := fmt.Errorf("%w: segment %s starts at seq %d", ErrCorrupt, name, sc.seqs[0])
				info.Err = e
				setErr(e)
			}
			for _, seq := range sc.seqs {
				if last != 0 && seq != last+1 {
					e := fmt.Errorf("%w: seq %d follows %d in %s", ErrCorrupt, seq, last, name)
					info.Err = e
					setErr(e)
					break
				}
				if r.FirstSeq == 0 {
					r.FirstSeq = seq
				}
				last = seq
			}
		}
		r.Segments = append(r.Segments, info)
	}
	r.LastSeq = last
	return r
}

// walFrameSeq peeks the sequence number of a framed record without decoding
// the op (used by tooling; exported for tests via the fuzz corpus writer).
func walFrameSeq(frame []byte) (uint64, bool) {
	if len(frame) < frameHdr+8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(frame[frameHdr:]), true
}
