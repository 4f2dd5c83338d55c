package adversary

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"

	"fiat/internal/stats"
)

// Score is one attack's row in the detection/false-admission matrix. All
// counts are attributed at the scoring layer (source MAC for frames,
// payload tag for attestations) — the proxy itself never sees attribution.
type Score struct {
	Attack    string `json:"attack"`
	Mechanism string `json:"mechanism"`
	Cell      string `json:"cell"`

	// Frame verdicts through the gateway inspector.
	AttackerPackets  int `json:"attacker_packets"`
	AttackerAdmitted int `json:"attacker_admitted"` // false admissions
	AttackerBlocked  int `json:"attacker_blocked"`
	BenignPackets    int `json:"benign_packets"`
	BenignBlocked    int `json:"benign_blocked"` // collateral damage

	// Forged attestation dispositions at the attestation endpoint.
	AttestForged   int `json:"attest_forged"`
	AttestAccepted int `json:"attest_accepted"`
	AttestRejected int `json:"attest_rejected"`
	AttestStale    int `json:"attest_stale"`
	AttestReplayed int `json:"attest_replayed"`

	// Lockouts is how many devices ended the run disconnected.
	Lockouts int `json:"lockouts"`
	// TimeToDetectMs is the delay from the attack's first action to the
	// first blocked attacker packet or rejected forgery; -1 = undetected.
	TimeToDetectMs int64 `json:"time_to_detect_ms"`
}

// Matrix is the full corpus scored under one seed and Config.Shards value.
type Matrix struct {
	Seed    int64   `json:"seed"`
	Shards  int     `json:"shards"`
	Attacks []Score `json:"attacks"`
}

// RunAll executes the whole catalog and assembles the matrix, returning the
// per-attack results for deeper inspection. Rows are sorted by attack name,
// so the JSON is byte-stable.
func RunAll(seed int64, shards int) (*Matrix, map[string]*Result, error) {
	m := &Matrix{Seed: seed, Shards: shards}
	results := make(map[string]*Result)
	for _, a := range Catalog() {
		res, err := Run(Scenario{Attack: a, Seed: seed, Shards: shards})
		if err != nil {
			return nil, nil, fmt.Errorf("adversary: %s: %w", a.Spec().Name, err)
		}
		m.Attacks = append(m.Attacks, res.Score)
		results[a.Spec().Name] = res
	}
	sort.Slice(m.Attacks, func(i, j int) bool { return m.Attacks[i].Attack < m.Attacks[j].Attack })
	return m, results, nil
}

// JSON renders the matrix in its canonical byte-stable form (the baseline
// file format).
func (m *Matrix) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Table renders the matrix as the -attacks text report.
func (m *Matrix) Table() string {
	tb := &stats.Table{Header: []string{
		"Attack", "Pkts", "Admit", "Block", "Benign blk",
		"Forged", "Accept", "Reject", "Lockouts", "Detect",
	}}
	for _, s := range m.Attacks {
		detect := "never"
		if s.TimeToDetectMs >= 0 {
			detect = fmt.Sprintf("%dms", s.TimeToDetectMs)
		}
		tb.Add(s.Attack, s.AttackerPackets, s.AttackerAdmitted, s.AttackerBlocked,
			s.BenignBlocked, s.AttestForged, s.AttestAccepted, s.AttestRejected,
			s.Lockouts, detect)
	}
	return tb.String()
}

// baselineJSON is the committed expected matrix (seed 1, Shards 1) — the CI
// regression gate. Regenerate with:
//
//	go run ./cmd/fiat-analyze -attacks -attacks-write-baseline internal/adversary/baseline.json
//
//go:embed baseline.json
var baselineJSON []byte

// Baseline parses the committed expected matrix.
func Baseline() (*Matrix, error) {
	var m Matrix
	if err := json.Unmarshal(baselineJSON, &m); err != nil {
		return nil, fmt.Errorf("adversary: baseline.json: %w", err)
	}
	return &m, nil
}

// Compare checks cur against base with match-or-beat semantics and returns
// one line per regression (empty = gate passes). A row regresses when the
// authenticator admits more attacker traffic, accepts more forgeries, locks
// out less, detects slower, or blocks more benign traffic than the
// baseline recorded. Improvements do not fail the gate — they show up as a
// baseline diff to commit deliberately.
func Compare(cur, base *Matrix) []string {
	var regressions []string
	byName := make(map[string]Score, len(cur.Attacks))
	for _, s := range cur.Attacks {
		byName[s.Attack] = s
	}
	for _, want := range base.Attacks {
		got, ok := byName[want.Attack]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: attack missing from matrix", want.Attack))
			continue
		}
		if got.AttackerAdmitted > want.AttackerAdmitted {
			regressions = append(regressions, fmt.Sprintf("%s: attacker packets admitted %d > baseline %d",
				want.Attack, got.AttackerAdmitted, want.AttackerAdmitted))
		}
		if got.AttestAccepted > want.AttestAccepted {
			regressions = append(regressions, fmt.Sprintf("%s: forged attestations accepted %d > baseline %d",
				want.Attack, got.AttestAccepted, want.AttestAccepted))
		}
		if want.Lockouts > 0 && got.Lockouts < want.Lockouts {
			regressions = append(regressions, fmt.Sprintf("%s: lockouts %d < baseline %d",
				want.Attack, got.Lockouts, want.Lockouts))
		}
		if want.TimeToDetectMs >= 0 && (got.TimeToDetectMs < 0 || got.TimeToDetectMs > want.TimeToDetectMs) {
			regressions = append(regressions, fmt.Sprintf("%s: time-to-detect %dms regressed past baseline %dms",
				want.Attack, got.TimeToDetectMs, want.TimeToDetectMs))
		}
		if got.BenignBlocked > want.BenignBlocked {
			regressions = append(regressions, fmt.Sprintf("%s: benign packets blocked %d > baseline %d",
				want.Attack, got.BenignBlocked, want.BenignBlocked))
		}
	}
	return regressions
}
