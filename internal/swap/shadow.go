package swap

import (
	"fmt"

	"fiat/internal/wire"
)

// ShadowMatrix accumulates the candidate-vs-incumbent agreement counts while
// a compiled candidate shadow-scores live traffic. It is mutated only under
// the proxy's device mutex, so plain int64 fields suffice.
type ShadowMatrix struct {
	// Packets is how many packets both artifacts scored.
	Packets int64
	// LiveHits / CandHits count stage-1 rule hits per artifact.
	LiveHits, CandHits int64
	// LiveOnly / CandOnly count disagreements: packets only one artifact
	// matched.
	LiveOnly, CandOnly int64
}

// Note records one packet scored by both artifacts.
func (m *ShadowMatrix) Note(liveHit, candHit bool) {
	m.Packets++
	if liveHit {
		m.LiveHits++
		if !candHit {
			m.LiveOnly++
		}
	}
	if candHit {
		m.CandHits++
		if !liveHit {
			m.CandOnly++
		}
	}
}

// Mismatches is the total disagreement count.
func (m ShadowMatrix) Mismatches() int64 { return m.LiveOnly + m.CandOnly }

// MatchesOrBeats is the promotion predicate: the candidate saw at least min
// packets and matched at least as many of them as the incumbent.
func (m ShadowMatrix) MatchesOrBeats(min int64) bool {
	return m.Packets >= min && m.CandHits >= m.LiveHits
}

// Sub returns the delta matrix m - o, used to flush window increments into
// monotonic counters.
func (m ShadowMatrix) Sub(o ShadowMatrix) ShadowMatrix {
	return ShadowMatrix{
		Packets:  m.Packets - o.Packets,
		LiveHits: m.LiveHits - o.LiveHits,
		CandHits: m.CandHits - o.CandHits,
		LiveOnly: m.LiveOnly - o.LiveOnly,
		CandOnly: m.CandOnly - o.CandOnly,
	}
}

// Append serializes the matrix canonically.
func (m ShadowMatrix) Append(b []byte) []byte {
	b = wire.AppendI64(b, m.Packets)
	b = wire.AppendI64(b, m.LiveHits)
	b = wire.AppendI64(b, m.CandHits)
	b = wire.AppendI64(b, m.LiveOnly)
	b = wire.AppendI64(b, m.CandOnly)
	return b
}

// DecodeShadowMatrix parses one matrix from the front of data and returns
// the remainder.
func DecodeShadowMatrix(data []byte) (ShadowMatrix, []byte, error) {
	rd := wire.NewReader(data)
	m := ShadowMatrix{
		Packets:  rd.I64(),
		LiveHits: rd.I64(),
		CandHits: rd.I64(),
		LiveOnly: rd.I64(),
		CandOnly: rd.I64(),
	}
	if err := rd.Err(); err != nil {
		return ShadowMatrix{}, nil, fmt.Errorf("swap: decode shadow matrix: %w", err)
	}
	return m, rd.Rest(), nil
}
