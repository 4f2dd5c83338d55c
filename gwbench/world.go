package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"time"

	"fiat/internal/artifact"
	"fiat/internal/core"
	"fiat/internal/durable"
	"fiat/internal/keystore"
	"fiat/internal/obs"
	"fiat/internal/quicfast"
	"fiat/internal/sensors"
	"fiat/internal/simclock"
	"fiat/internal/swap"
)

// vclock is the proxy's virtual clock: the benchmark sets it to each step's
// virtual instant, so decisions depend on the seed alone. Reads are atomic
// because shard workers sample it concurrently.
type vclock struct{ ns atomic.Int64 }

func (c *vclock) Now() time.Time { return at(c.ns.Load()) }

func (c *vclock) set(t int64) {
	if t > c.ns.Load() {
		c.ns.Store(t)
	}
}

// Operator settings. Everything else in core.Config stays at the default
// cmd/fiat-proxy uses.
const bootstrap = 5 * time.Minute

var relearn = swap.Options{
	Enabled:    true,
	MissRatio:  0.06,
	MinSample:  2048,
	RelearnFor: 4 * time.Minute,
	ShadowFor:  2 * time.Minute,
	ShadowMin:  8,
}

// worldOpts says which gateway to build: the production configuration, or
// the untimed Shards=1 reference replay.
type worldOpts struct {
	seed      int64
	replay    bool   // Shards=1, no transport, no WAL
	stateDir  string // durable state directory (durable workloads)
	transport bool   // pair a phone over loopback quicfast
	durable   bool
	relearn   bool
}

// world is one built gateway plus its attesting phone.
type world struct {
	clock *vclock
	proxy *core.Proxy
	mgr   *durable.Manager
	build durable.BuildProxy
	app   *core.ClientApp
	m     *models

	qc        *quicfast.Client
	srv       *quicfast.Server
	srvDone   chan error
	cliConn   net.PacketConn
	clientReg *obs.Registry
	handled   chan handled

	replayed int // ops the last durable.Open replayed
}

// handled is one attestation as the proxy's quicfast handler saw it.
type handled struct {
	tag        [32]byte
	human      bool
	err        error
	start, end int64 // HandleAttestation call, monotonic ns
}

// appName is the companion app bound to device d.
func appName(st *stream, d int32) string { return "app." + st.names[d] }

// newWorld builds the gateway for a workload: trains the humanness model
// and the event classifiers, enrolls the fleet, pairs the phone and
// completes the quicfast handshake. Bootstrap learning and compile follow
// in setup.
func newWorld(st *stream, o worldOpts) (*world, error) {
	rnd := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	proxyKS, err := keystore.New(rnd)
	if err != nil {
		return nil, err
	}
	phoneKS, err := keystore.New(rnd)
	if err != nil {
		return nil, err
	}
	offer, err := keystore.NewPairingOffer(proxyKS, rnd)
	if err != nil {
		return nil, err
	}
	resp, err := keystore.AcceptPairing(phoneKS, offer)
	if err != nil {
		return nil, err
	}
	if _, err := keystore.ConfirmPairing(offer, resp); err != nil {
		return nil, err
	}

	validator, _, err := sensors.DefaultValidator(1)
	if err != nil {
		return nil, err
	}
	m := &models{validator: validator, classify: make([]core.EventClassifier, len(st.names)), graceN: make([]int, len(st.names))}
	trained := make(map[devKind]*core.MLClassifier)
	for d, k := range st.kinds {
		if !k.ml() {
			m.classify[d] = core.RuleClassifier{NotificationSize: notificationSize}
			m.graceN[d] = 1
			continue
		}
		clf := trained[k]
		if clf == nil {
			if clf, err = core.TrainMLClassifier(trainingEvents(o.seed+int64(k), k, 60), nil); err != nil {
				return nil, fmt.Errorf("train %d: %w", k, err)
			}
			trained[k] = clf
		}
		m.classify[d] = clf
		m.graceN[d] = 5
	}

	w := &world{clock: &vclock{}, m: m}
	w.clock.set(epoch)
	cfg := core.Config{Bootstrap: bootstrap}
	if o.replay {
		cfg.Shards = 1
	}
	if o.relearn {
		cfg.Relearn = relearn
	}
	w.build = func(c simclock.Clock) (*core.Proxy, error) {
		cfg := cfg
		if o.durable {
			// Each (re)start maps its snapshot's arenas into a fresh
			// store, as a new process would.
			cfg.Artifacts = artifact.NewStore()
		}
		p := core.NewProxy(c, proxyKS, validator, cfg)
		for d, name := range st.names {
			dc := core.DeviceConfig{Name: name, Classifier: m.classify[d], GraceN: m.graceN[d]}
			if err := p.AddDevice(dc); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	if o.durable && !o.replay {
		if err := os.RemoveAll(o.stateDir); err != nil {
			return nil, err
		}
		if err := w.openDurable(o.stateDir); err != nil {
			return nil, err
		}
	} else if w.proxy, err = w.build(w.clock); err != nil {
		return nil, err
	}

	w.app = core.NewClientApp(w.clock, phoneKS)
	for d := range st.names {
		w.app.BindApp(appName(st, int32(d)), st.names[d])
	}
	if o.transport && !o.replay {
		psk, err := proxyKS.DeriveKey(keystore.PairingAlias, "quic-psk", 32)
		if err != nil {
			return nil, err
		}
		phonePSK, err := phoneKS.DeriveKey(keystore.PairingAlias, "quic-psk", 32)
		if err != nil {
			return nil, err
		}
		if err := w.listen(psk, phonePSK); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// openDurable opens (or recovers) the durable manager over dir.
func (w *world) openDurable(dir string) error {
	w.replayed = 0
	mgr, err := durable.Open(durable.Config{
		Dir: dir, Sync: durable.SyncTick,
		OnReplay: func(*durable.Op, []core.Decision) { w.replayed++ },
	}, w.clock, w.build)
	if err != nil {
		return err
	}
	w.mgr, w.proxy = mgr, mgr.Proxy()
	return nil
}

// listen starts the proxy's quicfast endpoint on loopback UDP, connects the
// phone over one UDP socket and completes the 1-RTT handshake, so every
// later attestation rides 0-RTT.
func (w *world) listen(psk, phonePSK []byte) error {
	srvConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.handled = make(chan handled, 16) // one in flight; slack for retransmit duplicates
	w.srv = quicfast.NewServer(srvConn, psk, func(msg quicfast.Message) {
		h := handled{start: mono()}
		h.human, h.err = w.proxy.HandleAttestation(msg.Payload)
		h.end = mono()
		if len(msg.Payload) >= 32 {
			copy(h.tag[:], msg.Payload[len(msg.Payload)-32:])
		}
		select {
		case w.handled <- h:
		default: // nobody waits for a duplicate
		}
	})
	w.srvDone = make(chan error, 1)
	go func() { w.srvDone <- w.srv.Serve() }()
	if w.cliConn, err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
		return err
	}
	w.clientReg = obs.NewRegistry()
	w.qc = quicfast.NewClient(w.cliConn, srvConn.LocalAddr(), phonePSK, quicfast.WithObs(w.clientReg))
	return w.qc.Handshake()
}

// close stops the transport goroutine and releases the durable log.
func (w *world) close() {
	if w.srv != nil {
		w.srv.Close()
		<-w.srvDone
		w.srv = nil
	}
	if w.cliConn != nil {
		w.cliConn.Close()
		w.cliConn = nil
	}
	if w.mgr != nil {
		w.mgr.Abort()
		w.mgr = nil
	}
	w.proxy.Close()
}

// awaitHandled waits for the handler to finish the attestation whose MAC
// tag is tag.
func (w *world) awaitHandled(tag [32]byte) (handled, error) {
	timeout := time.NewTimer(2 * time.Second)
	defer timeout.Stop()
	for {
		select {
		case h := <-w.handled:
			if h.tag == tag {
				return h, nil
			}
		case <-timeout.C:
			return handled{}, errors.New("attestation not handled within 2 s")
		}
	}
}

var monoBase = time.Now()

// mono is a monotonic timestamp in nanoseconds.
func mono() int64 { return int64(time.Since(monoBase)) }
