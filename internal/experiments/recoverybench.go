// Recovery microbenchmark (ISSUE 7): the cost of durability on the hot
// path (WAL append per operation, buffered vs fsync-per-append) and the
// cost of coming back from the dead (cold-restart time as a function of the
// WAL suffix length recovery must replay), plus the chaos crash matrix —
// every seeded kill point reconciled byte-for-byte against an uninterrupted
// reference. cmd/fiatbench drives this to emit BENCH_7.json.
package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"testing"
	"time"

	"fiat/internal/chaos"
	"fiat/internal/core"
	"fiat/internal/durable"
	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/simclock"
)

// recoveryBuild is the minimal deterministic proxy the durability benches
// manage: one rule-classified device, no attestation path (the bench never
// attests, so no humanness validator is trained).
func recoveryBuild(seed int64) durable.BuildProxy {
	return func(clock simclock.Clock) (*core.Proxy, error) {
		ks, err := keystore.New(rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		proxy := core.NewProxy(clock, ks, nil, core.Config{
			Bootstrap: time.Minute,
			Shards:    1,
		})
		if err := proxy.AddDevice(core.DeviceConfig{
			Name: "plug", Classifier: core.RuleClassifier{NotificationSize: 235}, GraceN: 1,
		}); err != nil {
			return nil, err
		}
		return proxy, nil
	}
}

var recoveryCloud = netip.MustParseAddr("52.1.1.1")

func recoveryPacket(at time.Time) []core.PacketIn {
	return []core.PacketIn{{Device: "plug", Rec: flows.Record{
		Time: at, Size: 128, Proto: "tcp", Dir: flows.DirOutbound,
		RemoteIP: recoveryCloud, LocalPort: 40000, RemotePort: 443,
		Category: flows.CategoryControl,
	}}}
}

// benchManager opens a managed proxy in a fresh temp dir. The caller owns
// the returned cleanup.
func benchManager(seed int64, sync durable.SyncMode) (*durable.Manager, *simclock.VirtualClock, func(), error) {
	dir, err := os.MkdirTemp("", "fiat-recoverybench-*")
	if err != nil {
		return nil, nil, nil, err
	}
	clock := simclock.NewVirtual()
	mgr, err := durable.Open(durable.Config{Dir: dir, Sync: sync}, clock, recoveryBuild(seed))
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, err
	}
	cleanup := func() {
		mgr.Abort()
		os.RemoveAll(dir)
	}
	return mgr, clock, cleanup, nil
}

// ColdRestart is one measured recovery: restart time against the number of
// WAL operations replayed.
type ColdRestart struct {
	WALOps    int     `json:"wal_ops"`
	RestartMs float64 `json:"restart_ms"`
	Replayed  int     `json:"replayed_ops"`
}

// BenchArm is one measured operation of a microbenchmark.
type BenchArm struct {
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	N           int     `json:"iterations"`
}

func arm(r testing.BenchmarkResult) BenchArm {
	ns := float64(r.NsPerOp())
	ops := 0.0
	if ns > 0 {
		ops = 1e9 / ns
	}
	return BenchArm{
		NsPerOp:     ns,
		OpsPerSec:   ops,
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		N:           r.N,
	}
}

// RecoveryBenchResult is the BENCH_7.json payload.
type RecoveryBenchResult struct {
	Bench string    `json:"bench"`
	Meta  BenchMeta `json:"meta"`
	Seed  int64     `json:"seed"`
	// AppendBuffered / AppendFsync measure one durably logged packet batch
	// through the manager (WAL frame + checksum + apply), with the fsync
	// deferred to the tick versus paid on every append.
	AppendBuffered BenchArm `json:"append_buffered"`
	AppendFsync    BenchArm `json:"append_fsync"`
	// AppendSweep measures the cheapest durable op (no body), isolating the
	// logging overhead from packet processing.
	AppendSweep BenchArm `json:"append_sweep"`
	// ColdRestarts measures durable.Open against growing WAL suffixes.
	ColdRestarts []ColdRestart `json:"cold_restarts"`
	// CrashMatrix is the chaos kill-point reconciliation (see
	// chaos.CrashMatrix); every entry must report identical=true.
	CrashMatrix []chaos.CrashReport `json:"crash_matrix"`
}

func (r RecoveryBenchResult) JSON() []byte {
	out, _ := json.MarshalIndent(r, "", "  ")
	return append(out, '\n')
}

// Identical reports whether every crash-matrix entry reconciled.
func (r RecoveryBenchResult) Identical() bool {
	for _, c := range r.CrashMatrix {
		if !c.Identical {
			return false
		}
	}
	return len(r.CrashMatrix) > 0
}

func benchAppend(seed int64, sync durable.SyncMode, sweepOnly bool) (BenchArm, error) {
	mgr, clock, cleanup, err := benchManager(seed, sync)
	if err != nil {
		return BenchArm{}, err
	}
	defer cleanup()
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Step past the event gap so grouper state stays bounded.
			clock.Advance(10 * time.Second)
			if sweepOnly {
				err = mgr.SweepPending()
			} else {
				_, err = mgr.ProcessBatch(recoveryPacket(clock.Now()))
			}
			if err != nil {
				benchErr = err
				b.FailNow()
			}
		}
		// Settle the deferred fsync so buffered mode pays its tick inside
		// the timed region.
		if err := mgr.Tick(); err != nil {
			benchErr = err
			b.FailNow()
		}
	})
	return arm(res), benchErr
}

func coldRestart(seed int64, walOps int) (ColdRestart, error) {
	dir, err := os.MkdirTemp("", "fiat-recoverybench-*")
	if err != nil {
		return ColdRestart{}, err
	}
	defer os.RemoveAll(dir)
	clock := simclock.NewVirtual()
	mgr, err := durable.Open(durable.Config{Dir: dir, Sync: durable.SyncOff}, clock, recoveryBuild(seed))
	if err != nil {
		return ColdRestart{}, err
	}
	for i := 0; i < walOps; i++ {
		clock.Advance(10 * time.Second)
		if _, err := mgr.ProcessBatch(recoveryPacket(clock.Now())); err != nil {
			mgr.Abort()
			return ColdRestart{}, err
		}
	}
	// Pull the plug: no final checkpoint, recovery must replay the suffix.
	mgr.Abort()

	replayed := 0
	start := time.Now()
	mgr2, err := durable.Open(durable.Config{
		Dir: dir, Sync: durable.SyncOff,
		OnReplay: func(*durable.Op, []core.Decision) { replayed++ },
	}, simclock.NewVirtual(), recoveryBuild(seed))
	elapsed := time.Since(start)
	if err != nil {
		return ColdRestart{}, err
	}
	mgr2.Abort()
	return ColdRestart{
		WALOps:    walOps,
		RestartMs: float64(elapsed.Microseconds()) / 1e3,
		Replayed:  replayed,
	}, nil
}

// RecoveryBench measures the durability layer end to end: append overhead,
// cold-restart scaling, and the crash-reconciliation matrix.
func RecoveryBench(seed int64) (RecoveryBenchResult, error) {
	res := RecoveryBenchResult{Bench: "Recovery", Seed: seed}
	var err error
	if res.AppendBuffered, err = benchAppend(seed, durable.SyncTick, false); err != nil {
		return res, fmt.Errorf("append buffered: %w", err)
	}
	if res.AppendFsync, err = benchAppend(seed, durable.SyncAlways, false); err != nil {
		return res, fmt.Errorf("append fsync: %w", err)
	}
	if res.AppendSweep, err = benchAppend(seed, durable.SyncTick, true); err != nil {
		return res, fmt.Errorf("append sweep: %w", err)
	}
	for _, n := range []int{0, 1000, 4000, 16000} {
		cr, err := coldRestart(seed, n)
		if err != nil {
			return res, fmt.Errorf("cold restart (%d ops): %w", n, err)
		}
		res.ColdRestarts = append(res.ColdRestarts, cr)
	}
	res.CrashMatrix, err = chaos.CrashMatrix(chaos.Scenario{
		Seed:          seed,
		Shards:        2,
		Duration:      90 * time.Second,
		ManualAt:      []time.Duration{10 * time.Second, 45 * time.Second},
		PendingWindow: 25 * time.Second,
	}, 25)
	if err != nil {
		return res, fmt.Errorf("crash matrix: %w", err)
	}
	return res, nil
}
