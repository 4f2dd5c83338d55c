// Cold-start benchmark (ISSUE 10): the cost of bringing a fleet back after
// a restart, copied-load versus zero-copy artifact views. Both arms recover
// the same v3 snapshot — one compiled arena section shared by every device
// that learned the same template — but the copied arm decodes and recompiles
// per device while the zero-copy arm builds views over the mapped snapshot
// and acquires one shared compiled view per unique arena.
// cmd/fiatbench -coldstart drives this to emit BENCH_10.json.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"fiat/internal/artifact"
	"fiat/internal/core"
	"fiat/internal/durable"
	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/simclock"
)

// ColdStartArm is one measured recovery of the primed fleet.
type ColdStartArm struct {
	RestartMs float64 `json:"restart_ms"`
	// HeapDeltaBytes is the retained Go heap growth across the open (after a
	// settling GC): the copied arm keeps per-device decoded tables, the
	// zero-copy arm keeps lazy views whose backing bytes live in the mapped
	// snapshot outside the heap.
	HeapDeltaBytes int64 `json:"heap_delta_bytes"`
}

// ColdStartPoint compares the two arms at one fleet size.
type ColdStartPoint struct {
	Devices int `json:"devices"`
	// SnapshotBytes is the recovered snapshot's body length with the
	// deduplicated artifact section; DedupSavedBytes is how much larger it
	// would be with one embedded arena copy per device reference.
	SnapshotBytes   int64 `json:"snapshot_bytes"`
	DedupSavedBytes int64 `json:"dedup_saved_bytes"`
	UniqueArenas    int   `json:"unique_arenas"`
	ArenaRefs       int   `json:"arena_refs"`
	// StateIdentical confirms the two recovered proxies re-encode to the
	// same bytes — the arms are interchangeable, not merely both plausible.
	StateIdentical bool         `json:"state_identical"`
	Copied         ColdStartArm `json:"copied"`
	ZeroCopy       ColdStartArm `json:"zerocopy"`
	// Speedup is copied restart time over zero-copy restart time.
	Speedup float64 `json:"speedup"`
}

// ColdStartResult is the BENCH_10.json payload.
type ColdStartResult struct {
	Bench  string           `json:"bench"`
	Meta   BenchMeta        `json:"meta"`
	Seed   int64            `json:"seed"`
	Points []ColdStartPoint `json:"points"`
	// AcquireAllocs is testing.AllocsPerRun over the warm per-device
	// acquisition path (shared view lookup + arrival rebind). The zero-copy
	// design pins this at 0.
	AcquireAllocs float64 `json:"acquire_allocs_per_device"`
}

func (r ColdStartResult) JSON() []byte {
	out, _ := json.MarshalIndent(r, "", "  ")
	return append(out, '\n')
}

// Gates returns a non-nil error when a hard acceptance gate fails: the
// warm acquisition path must be allocation-free, every point must dedup
// (one arena, N references, bytes saved), and the arms must re-encode
// identically.
func (r ColdStartResult) Gates() error {
	if r.AcquireAllocs != 0 {
		return fmt.Errorf("warm acquisition allocates (%g allocs/device, want 0)", r.AcquireAllocs)
	}
	if len(r.Points) == 0 {
		return fmt.Errorf("no measured points")
	}
	for _, p := range r.Points {
		if !p.StateIdentical {
			return fmt.Errorf("%d devices: recovered states differ between arms", p.Devices)
		}
		if p.UniqueArenas != 1 || p.ArenaRefs != p.Devices {
			return fmt.Errorf("%d devices: dedup failed (%d arenas, %d refs)", p.Devices, p.UniqueArenas, p.ArenaRefs)
		}
		if p.Devices > 1 && p.DedupSavedBytes <= 0 {
			return fmt.Errorf("%d devices: snapshot saved no bytes to dedup", p.Devices)
		}
	}
	return nil
}

var coldStartCloud = netip.MustParseAddr("52.2.2.2")

func coldStartDevice(i int) string { return fmt.Sprintf("plug-%04d", i) }

// coldStartFlows is the device's steady telemetry shape: several distinct
// flows per beat, so the frozen template carries a realistic number of keys
// and the per-device recompile the copied arm pays is not trivially small.
// Every device emits the same flows, so the fleet shares one arena.
var coldStartFlows = []struct {
	proto  string
	size   int
	rport  uint16
	remote netip.Addr
}{
	{"tcp", 128, 443, coldStartCloud},
	{"tcp", 96, 8883, coldStartCloud},
	{"udp", 76, 123, netip.MustParseAddr("52.2.2.3")},
	{"udp", 64, 53, netip.MustParseAddr("52.2.2.4")},
	{"tcp", 256, 443, netip.MustParseAddr("52.2.2.5")},
	{"tcp", 164, 8080, netip.MustParseAddr("52.2.2.6")},
	{"tcp", 188, 443, netip.MustParseAddr("52.2.2.7")},
	{"tcp", 92, 8883, netip.MustParseAddr("52.2.2.8")},
	{"udp", 80, 123, netip.MustParseAddr("52.2.2.9")},
	{"udp", 68, 5353, netip.MustParseAddr("52.2.2.10")},
	{"tcp", 240, 8443, netip.MustParseAddr("52.2.2.11")},
	{"tcp", 150, 1883, netip.MustParseAddr("52.2.2.12")},
	{"tcp", 132, 443, netip.MustParseAddr("52.2.2.13")},
	{"udp", 72, 123, netip.MustParseAddr("52.2.2.14")},
	{"tcp", 204, 9443, netip.MustParseAddr("52.2.2.15")},
	{"tcp", 112, 8086, netip.MustParseAddr("52.2.2.16")},
}

// coldStartBuild constructs the benched fleet: devices identical in
// configuration and (by the priming workload) in learned traffic, so every
// frozen rule table compiles to the same arena. zeroCopy selects the restore
// arm; the store the zero-copy proxy was built with is returned through
// *storeOut for dedup accounting.
func coldStartBuild(seed int64, devices int, zeroCopy bool, storeOut **artifact.Store) durable.BuildProxy {
	return func(clock simclock.Clock) (*core.Proxy, error) {
		ks, err := keystore.New(rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		var store *artifact.Store
		if zeroCopy {
			store = artifact.NewStore()
		}
		if storeOut != nil {
			*storeOut = store
		}
		proxy := core.NewProxy(clock, ks, nil, core.Config{
			Bootstrap: time.Minute,
			Shards:    1,
			Artifacts: store,
		})
		for i := 0; i < devices; i++ {
			if err := proxy.AddDevice(core.DeviceConfig{
				Name: coldStartDevice(i), Classifier: core.RuleClassifier{NotificationSize: 235}, GraceN: 1,
			}); err != nil {
				return nil, err
			}
		}
		return proxy, nil
	}
}

// coldStartPrime drives the identical heartbeat through every device past
// the bootstrap window (freezing and compiling one shared rule template),
// checkpoints, and pulls the plug. The state directory is left holding a v3
// snapshot and an empty WAL suffix, so a reopen measures restore alone.
func coldStartPrime(dir string, seed int64, devices int) error {
	clock := simclock.NewVirtual()
	mgr, err := durable.Open(durable.Config{Dir: dir, Sync: durable.SyncOff},
		clock, coldStartBuild(seed, devices, false, nil))
	if err != nil {
		return err
	}
	batch := make([]core.PacketIn, 0, devices*len(coldStartFlows))
	for tick := 0; tick < 9; tick++ { // 90 s of 10 s beats; bootstrap ends at 60 s
		clock.Advance(10 * time.Second)
		at := clock.Now()
		batch = batch[:0]
		for i := 0; i < devices; i++ {
			for _, f := range coldStartFlows {
				batch = append(batch, core.PacketIn{Device: coldStartDevice(i), Rec: flows.Record{
					Time: at, Size: f.size, Proto: f.proto, Dir: flows.DirOutbound,
					RemoteIP: f.remote, LocalPort: 40000, RemotePort: f.rport,
					Category: flows.CategoryControl,
				}})
			}
		}
		if _, err := mgr.ProcessBatch(batch); err != nil {
			mgr.Abort()
			return err
		}
	}
	if err := mgr.Checkpoint(); err != nil {
		mgr.Abort()
		return err
	}
	mgr.Abort()
	return nil
}

// coldStartOpen times one recovery of the primed directory and reports the
// retained heap growth. The returned manager is live — the caller reads its
// state and closes it.
func coldStartOpen(dir string, build durable.BuildProxy) (ColdStartArm, *durable.Manager, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	mgr, err := durable.Open(durable.Config{Dir: dir, Sync: durable.SyncOff}, simclock.NewVirtual(), build)
	elapsed := time.Since(start)
	if err != nil {
		return ColdStartArm{}, nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return ColdStartArm{
		RestartMs:      float64(elapsed.Microseconds()) / 1e3,
		HeapDeltaBytes: int64(after.HeapAlloc) - int64(before.HeapAlloc),
	}, mgr, nil
}

// coldStartPoint primes one fleet and measures both recovery arms against
// the same state directory.
func coldStartPoint(seed int64, devices int) (ColdStartPoint, error) {
	p := ColdStartPoint{Devices: devices}
	dir, err := os.MkdirTemp("", "fiat-coldstart-*")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	if err := coldStartPrime(dir, seed, devices); err != nil {
		return p, fmt.Errorf("prime: %w", err)
	}

	copiedArm, copiedMgr, err := coldStartOpen(dir, coldStartBuild(seed, devices, false, nil))
	if err != nil {
		return p, fmt.Errorf("copied open: %w", err)
	}
	copiedState := copiedMgr.Proxy().EncodeState()
	copiedMgr.Abort()

	var store *artifact.Store
	zeroArm, zeroMgr, err := coldStartOpen(dir, coldStartBuild(seed, devices, true, &store))
	if err != nil {
		return p, fmt.Errorf("zero-copy open: %w", err)
	}
	zeroState := zeroMgr.Proxy().EncodeState()
	if store != nil {
		st := store.Stats()
		p.UniqueArenas, p.ArenaRefs = st.UniqueRules, st.RuleRefs
	}
	zeroMgr.Abort()

	p.Copied, p.ZeroCopy = copiedArm, zeroArm
	p.StateIdentical = bytes.Equal(copiedState, zeroState)
	if zeroArm.RestartMs > 0 {
		p.Speedup = copiedArm.RestartMs / zeroArm.RestartMs
	}

	// Snapshot size and dedup accounting from the offline verifier.
	rep := durable.Verify(dir)
	if rep.Err != nil {
		return p, fmt.Errorf("verify: %w", rep.Err)
	}
	for _, s := range rep.Snapshots {
		if s.Err == nil && s.Artifacts != nil {
			p.SnapshotBytes = int64(s.BodyLen)
			p.DedupSavedBytes = s.Artifacts.SavedBytes
		}
	}
	return p, nil
}

// coldStartAcquireAllocs measures the warm per-device acquisition path —
// shared-view lookup plus arrival rebind — in isolation, on a store primed
// with one arena.
func coldStartAcquireAllocs() (float64, error) {
	rt := flows.NewRuleTable(flows.ModeClassic)
	base := time.Unix(1700000000, 0).UTC()
	for i := 0; i < 8; i++ {
		rt.Learn(flows.Record{
			Time: base.Add(time.Duration(i) * 10 * time.Second), Size: 128, Proto: "tcp",
			Dir: flows.DirOutbound, RemoteIP: coldStartCloud, LocalPort: 40000, RemotePort: 443,
			Category: flows.CategoryControl,
		})
	}
	rt.Freeze()
	compiled := rt.Compile()
	if compiled == nil {
		return 0, fmt.Errorf("rule table did not compile")
	}
	sum := compiled.Checksum()
	store := artifact.NewStore()
	if _, err := store.InstallRules(sum, artifact.EncodeRules(compiled)); err != nil {
		return 0, err
	}
	view := store.AcquireRules(sum) // keep one reference so the loop's release never drops the entry
	if view == nil {
		return 0, fmt.Errorf("installed arena not acquirable")
	}
	_, _, _, _, _, initLast, initHas := view.Arena()
	last := append([]int64(nil), initLast...)
	has := append([]bool(nil), initHas...)
	st, err := flows.ArrivalFromRaw(append([]int64(nil), initLast...), append([]bool(nil), initHas...))
	if err != nil {
		return 0, err
	}
	allocs := testing.AllocsPerRun(1000, func() {
		v := store.AcquireRules(sum)
		if v == nil {
			panic("arena vanished mid-bench")
		}
		if err := st.BindArrival(last, has); err != nil {
			panic(err)
		}
		store.ReleaseRules(sum)
	})
	return allocs, nil
}

// ColdStartBench measures copied-load versus zero-copy recovery across
// fleet sizes. The caller stamps Meta.
func ColdStartBench(seed int64, deviceCounts []int) (ColdStartResult, error) {
	res := ColdStartResult{Bench: "ColdStart", Seed: seed}
	var err error
	if res.AcquireAllocs, err = coldStartAcquireAllocs(); err != nil {
		return res, fmt.Errorf("acquire allocs: %w", err)
	}
	for _, n := range deviceCounts {
		p, err := coldStartPoint(seed, n)
		if err != nil {
			return res, fmt.Errorf("%d devices: %w", n, err)
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}
