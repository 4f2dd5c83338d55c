// Command fiat-proxy runs FIAT's server-side component live: it listens for
// phone attestations on a quicfast UDP socket and pushes a demo smart-plug
// traffic feed through the access-control pipeline, printing every verdict.
//
// Pair a phone by passing the printed code to fiat-app:
//
//	fiat-proxy -listen 127.0.0.1:7844 -bootstrap 3s
//	fiat-app -proxy 127.0.0.1:7844 -code <hex> -device plug
//
// Inject a command while a human attestation is fresh and the proxy allows
// it; inject without one and it drops.
//
// With -state-dir the proxy runs durably: every input operation is
// write-ahead logged with per-record checksums before it is applied,
// periodic checkpoints snapshot the full engine state, and a restart with
// the same directory recovers snapshot+WAL and resumes. -wal-sync picks the
// fsync policy (always, tick, off); SIGINT/SIGTERM triggers a graceful
// shutdown that flushes the WAL, takes a final checkpoint, and prints the
// closing obs snapshot.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fiat/internal/core"
	"fiat/internal/durable"
	"fiat/internal/flows"
	"fiat/internal/keystore"
	"fiat/internal/mud"
	"fiat/internal/obs"
	"fiat/internal/quicfast"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
	"fiat/internal/swap"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7844", "UDP address for attestations")
	codeHex := flag.String("code", "", "pairing code (hex); generated when empty")
	bootstrap := flag.Duration("bootstrap", 5*time.Second, "rule-learning window (paper: 20m)")
	nDevices := flag.Int("devices", 4, "simulated plug devices fed to the engine as one batch per tick")
	shards := flag.Int("shards", 0, "device-state shards (0 = GOMAXPROCS); 1 decides every batch packet by packet, more decide it shard by shard (same decisions)")
	duration := flag.Duration("duration", time.Minute, "how long to run the demo feed")
	attackEvery := flag.Duration("attack-every", 10*time.Second, "injected command cadence")
	mudOut := flag.String("mud", "", "export learned rules as an RFC 8520 MUD profile on exit")
	pendingWindow := flag.Duration("pending-window", 0, "degraded mode: hold unattested manual events this long awaiting a late attestation (0 = strict)")
	pendingMax := flag.Int("pending-max", 0, "degraded mode: held-decision queue bound (0 = default 64)")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, expvar, and pprof on this HTTP address (empty = disabled)")
	obsInterval := flag.Duration("obs-interval", 0, "print runtime stats every interval (0 = disabled)")
	stateDir := flag.String("state-dir", "", "durable state directory (WAL + snapshots); empty = in-memory only")
	walSync := flag.String("wal-sync", "tick", "WAL fsync policy with -state-dir: always, tick, or off")
	checkpointEvery := flag.Duration("checkpoint-every", 30*time.Second, "periodic snapshot cadence with -state-dir (0 = only on shutdown)")
	relearn := flag.Bool("relearn", false, "online relearning: on drift, relearn rules from live traffic, shadow-evaluate the candidate, and hot-swap it in when it matches-or-beats the live artifact")
	driftMiss := flag.Float64("drift-miss-ratio", 0, "relearn trigger: a device's rule-miss ratio per detector window (0 = default 0.5)")
	driftMargin := flag.Float64("drift-margin", 0, "relearn trigger: manual-classification fraction drift vs baseline (0 = default 0.4)")
	driftLockouts := flag.Int("drift-lockout-burst", 0, "relearn trigger: one device's lockouts within its detector window (0 = default 1)")
	relearnFor := flag.Duration("relearn-for", 0, "how long a drift-triggered candidate learns live traffic before compiling (0 = default 10m)")
	shadowFor := flag.Duration("shadow-for", 0, "how long a compiled candidate shadow-scores every packet before the promote/rollback verdict (0 = default 10m)")
	flag.Parse()

	syncMode, err := durable.ParseSyncMode(*walSync)
	if err != nil {
		fatal(err)
	}

	code := make([]byte, 32)
	if *codeHex == "" {
		if _, err := rand.Read(code); err != nil {
			fatal(err)
		}
	} else {
		b, err := hex.DecodeString(*codeHex)
		if err != nil || len(b) != 32 {
			fatal(fmt.Errorf("-code must be 64 hex chars"))
		}
		code = b
	}
	fmt.Printf("fiat-proxy: pairing code %s\n", hex.EncodeToString(code))

	ks, err := keystore.New(rand.Reader)
	if err != nil {
		fatal(err)
	}
	if err := importPairing(ks, code); err != nil {
		fatal(err)
	}
	psk, err := ks.DeriveKey(keystore.PairingAlias, "quic-psk", 32)
	if err != nil {
		fatal(err)
	}

	fmt.Println("fiat-proxy: training humanness validator...")
	validator, _, err := sensors.DefaultValidator(1)
	if err != nil {
		fatal(err)
	}
	clock := simclock.RealClock{}
	reg := obs.NewRegistry()
	if *nDevices < 1 {
		*nDevices = 1
	}
	// The first device keeps the name "plug" so fiat-app's attestations
	// target it; the rest pad out the per-tick batch.
	names := make([]string, *nDevices)
	for i := range names {
		names[i] = "plug"
		if i > 0 {
			names[i] = fmt.Sprintf("plug%d", i+1)
		}
	}
	// buildProxy performs the complete, deterministic proxy construction.
	// With -state-dir it doubles as the recovery constructor: durable.Open
	// rebuilds the same proxy and restores snapshot+WAL state into it;
	// compiled arenas are shared views over the mapped snapshot, one per
	// unique arena.
	buildProxy := func(c simclock.Clock) (*core.Proxy, error) {
		p := core.NewProxy(c, ks, validator, core.Config{
			Bootstrap: *bootstrap, Shards: *shards,
			PendingWindow: *pendingWindow, PendingMax: *pendingMax,
			Relearn: swap.Options{
				Enabled:      *relearn,
				MissRatio:    *driftMiss,
				MarginDrift:  *driftMargin,
				LockoutBurst: int64(*driftLockouts),
				RelearnFor:   *relearnFor,
				ShadowFor:    *shadowFor,
			},
			Obs: reg,
		})
		for _, name := range names {
			if err := p.AddDevice(core.DeviceConfig{
				Name:       name,
				Classifier: core.RuleClassifier{NotificationSize: 235},
				GraceN:     1,
			}); err != nil {
				return nil, err
			}
		}
		return p, nil
	}

	var (
		proxy *core.Proxy
		mgr   *durable.Manager
	)
	if *stateDir != "" {
		replayed := 0
		mgr, err = durable.Open(durable.Config{
			Dir: *stateDir, Sync: syncMode,
			OnReplay: func(*durable.Op, []core.Decision) { replayed++ },
		}, clock, buildProxy)
		if err != nil {
			fatal(err)
		}
		proxy = mgr.Proxy()
		fmt.Printf("fiat-proxy: durable state in %s (wal-sync=%s, recovered to seq %d, %d op(s) replayed)\n",
			*stateDir, syncMode, mgr.LastSeq(), replayed)
	} else if proxy, err = buildProxy(clock); err != nil {
		fatal(err)
	}
	if *obsAddr != "" {
		serveObs(reg, *obsAddr)
	}
	if *obsInterval > 0 {
		reportRuntime(reg, *obsInterval)
	}
	fmt.Printf("fiat-proxy: %d devices on %d engine shards\n", len(names), proxy.ShardCount())

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := quicfast.NewServer(conn, psk, func(m quicfast.Message) {
		if mgr != nil {
			// The manager write-ahead-logs the raw payload and folds the
			// verdict into durably replayed state; the authenticated-or-not
			// outcome is recovered from the attestation counter.
			before := proxy.StatsSnapshot().AttestationsOK
			if err := mgr.HandleAttestation(m.Payload); err != nil {
				fmt.Printf("[attest] durable log failed: %v\n", err)
			} else if proxy.StatsSnapshot().AttestationsOK > before {
				fmt.Printf("[attest] authenticated and durably logged (0-RTT=%v) — verdict governs manual traffic for %s\n",
					m.ZeroRTT, core.ValidationTTL)
			} else {
				fmt.Printf("[attest] rejected (malformed, stale, or replayed)\n")
			}
			return
		}
		human, err := proxy.HandleAttestation(m.Payload)
		switch {
		case err != nil:
			fmt.Printf("[attest] rejected: %v\n", err)
		case human:
			fmt.Printf("[attest] human verified (0-RTT=%v) — manual traffic authorized for %s\n",
				m.ZeroRTT, core.ValidationTTL)
		default:
			fmt.Printf("[attest] NON-HUMAN window — manual traffic stays blocked\n")
		}
	}, quicfast.WithServerObs(reg))
	go func() {
		if err := srv.Serve(); err != nil {
			fmt.Fprintln(os.Stderr, "fiat-proxy: serve:", err)
		}
	}()
	defer srv.Close()
	fmt.Printf("fiat-proxy: listening on %s; bootstrap %s\n", *listen, *bootstrap)

	// Demo feed: every tick each device heartbeats, and the whole tick is
	// decided as one ProcessBatch, shard by shard; an injected
	// on/off command every attack-every. Run fiat-app to authorize one.
	cloud := netip.MustParseAddr("52.1.1.1")
	heartbeat := func() flows.Record {
		return flows.Record{
			Time: clock.Now(), Size: 128, Proto: "tcp", Dir: flows.DirOutbound,
			RemoteIP: cloud, RemoteDomain: "cloud.example",
			LocalPort: 40000, RemotePort: 443, Category: flows.CategoryControl,
		}
	}
	command := func() flows.Record {
		return flows.Record{
			Time: clock.Now(), Size: 235, Proto: "tcp", Dir: flows.DirInbound,
			RemoteIP: cloud, RemoteDomain: "cloud.example",
			LocalPort: 40000, RemotePort: 443, TCPFlags: 0x18, TLSVersion: 0x0303,
			Category: flows.CategoryManual,
		}
	}
	hb := time.NewTicker(700 * time.Millisecond) // off the 1 s quantization boundary
	defer hb.Stop()
	atk := time.NewTicker(*attackEvery)
	defer atk.Stop()
	sweep := time.NewTicker(time.Second)
	defer sweep.Stop()
	var ckpt <-chan time.Time
	if mgr != nil && *checkpointEvery > 0 {
		t := time.NewTicker(*checkpointEvery)
		defer t.Stop()
		ckpt = t.C
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	end := time.After(*duration)

	// processBatch routes one packet batch through the durable log when
	// -state-dir is set, straight to the engine otherwise.
	processBatch := func(batch []core.PacketIn) []core.Decision {
		if mgr != nil {
			ds, err := mgr.ProcessBatch(batch)
			if err != nil {
				fatal(err)
			}
			return ds
		}
		return proxy.ProcessBatch(batch)
	}
	// shutdown is shared by the duration end and the signal path: final
	// stats, MUD export, and — when durable — WAL flush + final checkpoint
	// and the closing obs snapshot.
	shutdown := func() {
		s := proxy.StatsSnapshot()
		fmt.Printf("fiat-proxy: done. packets=%d allowed=%d dropped=%d rule-hits=%d attestations=%d\n",
			s.Packets, s.Allowed, s.Dropped, s.RuleHits, s.AttestationsOK)
		if *mudOut != "" {
			exportMUD(*mudOut, proxy)
		}
		if mgr != nil {
			if err := mgr.Close(); err != nil {
				fatal(fmt.Errorf("durable shutdown: %w", err))
			}
			fmt.Printf("fiat-proxy: durable state flushed (final checkpoint at seq %d)\n", mgr.SnapshotSeq())
			fmt.Println("--- closing obs snapshot ---")
			fmt.Print(reg.Snapshot())
			fmt.Println("--- end closing obs snapshot ---")
		}
	}

	for {
		select {
		case <-sweep.C:
			before := proxy.PendingDepth()
			if mgr != nil {
				if err := mgr.SweepPending(); err != nil {
					fatal(err)
				}
				// Tick batches the deferred WAL fsync under -wal-sync=tick
				// and refreshes the snapshot-age gauge.
				if err := mgr.Tick(); err != nil {
					fatal(err)
				}
				if n := before - proxy.PendingDepth(); n > 0 {
					fmt.Printf("[pending ] %d held decision(s) expired unattested\n", n)
				}
			} else if n := proxy.SweepPending(); n > 0 {
				fmt.Printf("[pending ] %d held decision(s) expired unattested\n", n)
			}
		case <-ckpt: // nil (blocks forever) unless durable
			if err := mgr.Checkpoint(); err != nil {
				fatal(fmt.Errorf("checkpoint: %w", err))
			}
			fmt.Printf("[durable ] checkpoint at seq %d\n", mgr.SnapshotSeq())
		case <-hb.C:
			batch := make([]core.PacketIn, len(names))
			for i, name := range names {
				batch[i] = core.PacketIn{Device: name, Rec: heartbeat()}
			}
			for i, d := range processBatch(batch) {
				if proxy.Bootstrapped() && d.Reason != core.ReasonRuleHit {
					fmt.Printf("[heartbeat] %s: %s (%s)\n", names[i], d.Verdict, d.Reason)
				}
			}
		case <-atk.C:
			ds := processBatch([]core.PacketIn{{Device: "plug", Rec: command()}})
			fmt.Printf("[command ] turn on/off -> %s (%s)\n", ds[0].Verdict, ds[0].Reason)
			if mgr != nil {
				if _, err := mgr.FlushEvent("plug"); err != nil {
					fatal(err)
				}
			} else {
				proxy.FlushEvent("plug")
			}
		case sig := <-sigc:
			fmt.Printf("fiat-proxy: %s — shutting down gracefully\n", sig)
			shutdown()
			return
		case <-end:
			shutdown()
			return
		}
	}
}

// importPairing installs the key both sides derive from the shared code.
func importPairing(ks *keystore.Store, code []byte) error {
	key, err := keystore.DerivePairingKey(code)
	if err != nil {
		return err
	}
	return ks.ImportKey(keystore.PairingAlias, key)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fiat-proxy:", err)
	os.Exit(1)
}

// exportMUD writes the plug's learned rules as an RFC 8520 profile.
func exportMUD(path string, proxy *core.Proxy) {
	keys, ok := proxy.RuleKeys("plug")
	if !ok {
		fmt.Fprintln(os.Stderr, "fiat-proxy: no rules to export")
		return
	}
	profile := mud.FromRules("plug", "https://fiat.example/plug.json", keys, time.Now())
	data, err := profile.Encode()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fiat-proxy: MUD export:", err)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fiat-proxy:", err)
		return
	}
	fmt.Printf("fiat-proxy: exported MUD profile -> %s\n", path)
}
