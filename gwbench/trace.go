package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Span names: each is the benchmark's own call into one module.
const (
	spFrameBatch uint8 = iota // root: one frame batch, raw bytes to verdicts
	spDecode                  // packet.Decode + devices.RecordFromFrame over the batch
	spCore                    // core.Proxy.ProcessBatchInto
	spDurable                 // durable.Manager.ProcessBatch
	spAttest                  // root: one attestation, touch to admitted
	spClient                  // core.ClientApp.Attest
	spDeliver                 // quicfast.Client.Deliver
	spHandle                  // core.Proxy.HandleAttestation (server goroutine)
	spSweep                   // root: durable.Manager.SweepPending
	spCheckpoint              // root: durable.Manager.Checkpoint
	spRestart                 // root: pulled plug to first verdict
	spOpen                    // durable.Open
	nSpans
)

var spanNames = [nSpans]string{
	"frame.batch", "packet.decode", "core.process_batch", "durable.process_batch",
	"attest", "client.attest", "quicfast.deliver", "core.handle_attestation",
	"durable.sweep", "durable.checkpoint", "restart", "durable.open",
}

// coverTolerance is how much of a root span's time its child layer spans
// may leave unaccounted for. The gate applies to the sum over all roots of
// one name; single roots that miss it (a preempted benchmark thread) are
// counted and printed.
const coverTolerance = 0.05

type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"` // index of the parent span in the file, -1 for roots
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type rawSpan struct {
	name       uint8
	start, end int64
}

// tracer keeps spans in memory: every span feeds the per-name aggregates,
// and the first maxKept are kept verbatim for the trace file.
type tracer struct {
	kept    []span
	maxKept int
	req     int64

	count, total, self [nSpans]int64
	rootCovered        [nSpans]int64 // per root name: time its children cover
	rootsShort         [nSpans]int64 // roots whose children cover less than 1-coverTolerance
	durs               [nSpans][]int64
}

func newTracer() *tracer { return &tracer{maxKept: 200000} }

// record files one root span and its children (which may overlap; a
// root's covered time is the union of its children).
func (t *tracer) record(root rawSpan, children ...rawSpan) {
	t.req++
	dur := root.end - root.start
	t.count[root.name]++
	t.total[root.name] += dur
	t.durs[root.name] = append(t.durs[root.name], dur)
	covered := union(children)
	t.rootCovered[root.name] += covered
	if len(children) > 0 && float64(covered) < (1-coverTolerance)*float64(dur) {
		t.rootsShort[root.name]++
	}
	t.self[root.name] += dur - covered
	for _, c := range children {
		d := c.end - c.start
		t.count[c.name]++
		t.total[c.name] += d
		t.self[c.name] += d
		t.durs[c.name] = append(t.durs[c.name], d)
	}
	if len(t.kept)+1+len(children) > t.maxKept {
		return
	}
	parent := int32(len(t.kept))
	t.kept = append(t.kept, span{Name: spanNames[root.name], Req: t.req, Parent: -1, Start: root.start, End: root.end})
	for _, c := range children {
		t.kept = append(t.kept, span{Name: spanNames[c.name], Req: t.req, Parent: parent, Start: c.start, End: c.end})
	}
}

// union is the time the spans cover together. Callers pass children that
// lie inside their root.
func union(sp []rawSpan) int64 {
	if len(sp) == 0 {
		return 0
	}
	s := append([]rawSpan(nil), sp...)
	sort.Slice(s, func(a, b int) bool { return s[a].start < s[b].start })
	var total int64
	curS, curE := s[0].start, s[0].end
	for _, x := range s[1:] {
		if x.start > curE {
			total += curE - curS
			curS, curE = x.start, x.end
		} else if x.end > curE {
			curE = x.end
		}
	}
	return total + curE - curS
}

// coverage reports, per root name with children, the share of root time
// its children account for.
func (t *tracer) coverage() map[string]float64 {
	out := make(map[string]float64)
	for n := uint8(0); n < nSpans; n++ {
		if t.count[n] > 0 && t.rootCovered[n] > 0 {
			out[spanNames[n]] = float64(t.rootCovered[n]) / float64(t.total[n])
		}
	}
	return out
}

// write saves the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
