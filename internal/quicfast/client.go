package quicfast

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"time"

	"fiat/internal/obs"
)

// Client retransmit defaults: the first attempt waits defaultTimeout, each
// further attempt doubles the wait (± jitter) up to defaultTimeoutMax.
const (
	defaultTimeout       = 500 * time.Millisecond
	defaultRetries       = 3
	defaultBackoffFactor = 2.0
	defaultTimeoutMax    = 8 * time.Second
	defaultJitterFrac    = 0.2
)

// Client is the phone-side endpoint: one session to the proxy. It is not
// safe for concurrent Sends (FIAT's app sends one attestation at a time),
// which lets every exchange share one receive buffer.
type Client struct {
	conn   net.PacketConn
	remote net.Addr
	psk    []byte
	rand   io.Reader

	keys    *sessionKeys
	connID  [connIDLen]byte
	pktNum  uint32
	timeout time.Duration
	retries int

	// Retransmit backoff policy: attempt n waits
	// min(timeout*backoffFactor^n, timeoutMax), jittered by ±jitterFrac so
	// synchronized clients desynchronize after an outage.
	backoffFactor float64
	timeoutMax    time.Duration
	jitterFrac    float64
	brng          *mrand.Rand

	// Resumption state enabling 0-RTT on later sessions: the ticket and
	// the early-data key derived from it once, when the ticket arrived.
	ticketID []byte
	zeroAEAD cipher.AEAD
	zeroIV   [12]byte
	zeroPkt  uint32

	rbuf []byte // receive buffer shared by every exchange

	mx clientMetrics
}

// clientMetrics are the client's transport counters: which path delivered
// (0-RTT vs 1-RTT vs after a forced re-handshake), the raw attempt /
// retransmit mix, and the backoff schedule actually waited out. All handles
// are nil (no-op) until WithObs installs a registry.
type clientMetrics struct {
	deliver0RTT  *obs.Counter
	deliver1RTT  *obs.Counter
	rehandshakes *obs.Counter
	attempts     *obs.Counter
	retransmits  *obs.Counter
	rejects      *obs.Counter
	timeouts     *obs.Counter
	backoffMS    *obs.Histogram
}

// backoffMSBounds covers the clamped retransmit schedule: 1 ms .. ~16 s.
var backoffMSBounds = obs.ExpBounds(1, 4, 8)

// WithObs wires the client's transport metrics into reg under the
// fiat_quicfast_client_* names.
func WithObs(reg *obs.Registry) ClientOption {
	return func(c *Client) {
		c.mx = clientMetrics{
			deliver0RTT:  reg.Counter(obs.Label("fiat_quicfast_client_deliver_total", "path", "0rtt")),
			deliver1RTT:  reg.Counter(obs.Label("fiat_quicfast_client_deliver_total", "path", "1rtt")),
			rehandshakes: reg.Counter("fiat_quicfast_client_rehandshakes_total"),
			attempts:     reg.Counter("fiat_quicfast_client_attempts_total"),
			retransmits:  reg.Counter("fiat_quicfast_client_retransmits_total"),
			rejects:      reg.Counter("fiat_quicfast_client_rejects_total"),
			timeouts:     reg.Counter("fiat_quicfast_client_timeouts_total"),
			backoffMS:    reg.Histogram("fiat_quicfast_client_backoff_ms", backoffMSBounds),
		}
	}
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithClientRand overrides the entropy source (tests).
func WithClientRand(r io.Reader) ClientOption {
	return func(c *Client) { c.rand = r }
}

// WithTimeout sets the first-attempt ack timeout (default 500 ms).
// Non-positive values fall back to the default.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithRetries sets the retransmit count (default 3). Zero means a single
// attempt; negative values fall back to the default.
func WithRetries(n int) ClientOption {
	return func(c *Client) { c.retries = n }
}

// WithBackoff sets the per-attempt timeout growth factor and its cap.
// A factor below 1 or a cap below the base timeout falls back to defaults.
func WithBackoff(factor float64, max time.Duration) ClientOption {
	return func(c *Client) { c.backoffFactor = factor; c.timeoutMax = max }
}

// WithBackoffJitter sets the ± jitter fraction applied to every attempt
// timeout and the seed of the jitter stream (frac 0 disables jitter).
func WithBackoffJitter(frac float64, seed int64) ClientOption {
	return func(c *Client) {
		c.jitterFrac = frac
		c.brng = mrand.New(mrand.NewSource(seed))
	}
}

// NewClient wraps conn targeting remote, authenticated by the pairing PSK.
// Out-of-range option values are clamped to their defaults, so a
// misconfigured client degrades to the stock retransmit policy instead of
// spinning or failing instantly.
func NewClient(conn net.PacketConn, remote net.Addr, psk []byte, opts ...ClientOption) *Client {
	c := &Client{
		conn:          conn,
		remote:        remote,
		psk:           append([]byte(nil), psk...),
		rand:          rand.Reader,
		timeout:       defaultTimeout,
		retries:       defaultRetries,
		backoffFactor: defaultBackoffFactor,
		timeoutMax:    defaultTimeoutMax,
		jitterFrac:    defaultJitterFrac,
		rbuf:          make([]byte, 65535),
	}
	for _, o := range opts {
		o(c)
	}
	if c.timeout <= 0 {
		c.timeout = defaultTimeout
	}
	if c.retries < 0 {
		c.retries = defaultRetries
	}
	if c.backoffFactor < 1 {
		c.backoffFactor = defaultBackoffFactor
	}
	if c.timeoutMax < c.timeout {
		c.timeoutMax = c.timeout
	}
	if c.jitterFrac < 0 || c.jitterFrac >= 1 {
		c.jitterFrac = defaultJitterFrac
	}
	if c.brng == nil {
		c.brng = mrand.New(mrand.NewSource(1))
	}
	return c
}

// Handshake performs the 1-RTT exchange, establishing keys and collecting a
// session ticket for future 0-RTT sends.
func (c *Client) Handshake() error {
	priv, err := newX25519(c.rand)
	if err != nil {
		return err
	}
	if _, err := io.ReadFull(c.rand, c.connID[:]); err != nil {
		return fmt.Errorf("quicfast: conn id: %w", err)
	}
	crandom := make([]byte, randomLen)
	if _, err := io.ReadFull(c.rand, crandom); err != nil {
		return fmt.Errorf("quicfast: client random: %w", err)
	}
	cpub := priv.PublicKey().Bytes()
	init := make([]byte, 0, 128)
	init = append(init, ptInitial)
	init = append(init, c.connID[:]...)
	init = append(init, cpub...)
	init = append(init, crandom...)
	init = append(init, pskMAC(c.psk, []byte("init"), c.connID[:], cpub, crandom)...)

	reply, err := c.exchange(init, ptReply, c.connID[:], nil, nil)
	if err != nil {
		return err
	}
	minLen := 1 + connIDLen + pubKeyLen + randomLen + macLen
	if len(reply) < minLen {
		return ErrMalformed
	}
	spubRaw := reply[1+connIDLen : 1+connIDLen+pubKeyLen]
	srandom := reply[1+connIDLen+pubKeyLen : 1+connIDLen+pubKeyLen+randomLen]
	mac := reply[minLen-macLen : minLen]
	if !hmacEqual(pskMAC(c.psk, []byte("reply"), c.connID[:], spubRaw, srandom, crandom), mac) {
		return ErrAuth
	}
	spub, err := ecdh.X25519().NewPublicKey(spubRaw)
	if err != nil {
		return ErrMalformed
	}
	shared, err := priv.ECDH(spub)
	if err != nil {
		return ErrMalformed
	}
	salt := append(append([]byte(nil), crandom...), srandom...)
	keys, err := deriveKeys(shared, salt)
	if err != nil {
		return err
	}
	ticketPlain, err := keys.serverAEAD.Open(nil, nonceFor(keys.serverIV, 0), reply[minLen:], reply[:1+connIDLen])
	if err != nil {
		return ErrAuth
	}
	if len(ticketPlain) != ticketIDLen+secretLen {
		return ErrMalformed
	}
	zeroAEAD, zeroIV, err := zeroRTTKeys(ticketPlain[ticketIDLen:])
	if err != nil {
		return err
	}
	c.keys = keys
	c.pktNum = 0
	c.ticketID = append([]byte(nil), ticketPlain[:ticketIDLen]...)
	c.zeroAEAD, c.zeroIV = zeroAEAD, zeroIV
	c.zeroPkt = 0
	return nil
}

// Send transmits payload over the established 1-RTT session, blocking until
// the server's ack (with retransmits).
func (c *Client) Send(payload []byte) error {
	if c.keys == nil {
		return fmt.Errorf("quicfast: Send before Handshake")
	}
	c.pktNum++
	pkt := seal(ptData, c.connID[:], c.pktNum, c.keys.clientAEAD, c.keys.clientIV, payload)
	aead, nonce := c.keys.serverAEAD, nonceFor(c.keys.serverIV, c.pktNum)
	_, err := c.exchange(pkt, ptAck, pkt[1:dataHdrLen], ErrStaleSession, func(ack []byte) bool {
		return ackOpens(aead, nonce, ack, dataHdrLen)
	})
	return err
}

// CanZeroRTT reports whether a ticket from a previous handshake is cached.
func (c *Client) CanZeroRTT() bool { return len(c.ticketID) == ticketIDLen }

// SendZeroRTT transmits payload as early data under the cached ticket — no
// handshake round trip. Each send uses a fresh packet number, so capturing
// and replaying the datagram verbatim is rejected by the server.
func (c *Client) SendZeroRTT(payload []byte) error {
	if !c.CanZeroRTT() {
		return ErrUnknownTicket
	}
	pkt := c.sealZeroRTT(payload)
	aead, nonce := c.zeroAEAD, nonceFor(c.zeroIV, c.zeroPkt^zeroRTTAckBit)
	_, err := c.exchange(pkt, ptZeroAck, pkt[1:zeroHdrLen], ErrUnknownTicket, func(ack []byte) bool {
		return ackOpens(aead, nonce, ack, zeroHdrLen)
	})
	return err
}

// sealZeroRTT seals payload as early data under the next 0-RTT packet
// number.
func (c *Client) sealZeroRTT(payload []byte) []byte {
	c.zeroPkt++
	return seal(ptZeroRTT, c.ticketID, c.zeroPkt, c.zeroAEAD, c.zeroIV, payload)
}

// seal builds [typ][id][pktNum][payload sealed under aead], the header
// being the additional data, in one allocation.
func seal(typ byte, id []byte, pktNum uint32, aead cipher.AEAD, iv [12]byte, payload []byte) []byte {
	hdrLen := 1 + len(id) + 4
	pkt := make([]byte, hdrLen, hdrLen+len(payload)+aead.Overhead())
	pkt[0] = typ
	copy(pkt[1:], id)
	binary.BigEndian.PutUint32(pkt[1+len(id):], pktNum)
	return aead.Seal(pkt, nonceFor(iv, pktNum), payload, pkt)
}

// ForgetSession drops the cached session keys, resumption ticket and
// early-data key, so the next Deliver performs a fresh 1-RTT handshake.
func (c *Client) ForgetSession() {
	c.keys = nil
	c.ticketID = nil
	c.zeroAEAD = nil
}

// Deliver sends payload with automatic degradation: it prefers 0-RTT under
// a cached ticket, falls back to the established 1-RTT session, and when
// the server rejects stale state (a proxy restart losing its ticket and
// session tables) or the exchange times out, re-handshakes from scratch and
// retries once. A phone that paired before a proxy restart is therefore
// never stranded. The returned zeroRTT reports which path delivered.
func (c *Client) Deliver(payload []byte) (zeroRTT bool, err error) {
	switch {
	case c.CanZeroRTT():
		err = c.SendZeroRTT(payload)
		if err == nil {
			c.mx.deliver0RTT.Inc()
			return true, nil
		}
	case c.keys != nil:
		err = c.Send(payload)
		if err == nil {
			c.mx.deliver1RTT.Inc()
			return false, nil
		}
	}
	if err != nil && !NeedsRehandshake(err) && !Retryable(err) {
		return false, err // fatal: re-handshaking cannot help
	}
	c.mx.rehandshakes.Inc()
	c.ForgetSession()
	if err := c.Handshake(); err != nil {
		return false, err
	}
	if err := c.Send(payload); err != nil {
		return false, err
	}
	c.mx.deliver1RTT.Inc()
	return false, nil
}

// RawZeroRTTDatagram builds (without sending) a 0-RTT packet — used by the
// attack examples to model an eavesdropper capturing and replaying the
// exact bytes.
func (c *Client) RawZeroRTTDatagram(payload []byte) ([]byte, error) {
	if !c.CanZeroRTT() {
		return nil, ErrUnknownTicket
	}
	return c.sealZeroRTT(payload), nil
}

// Inject writes a pre-built datagram (attack simulation helper).
func (c *Client) Inject(pkt []byte) error {
	_, err := c.conn.WriteTo(pkt, c.remote)
	return err
}

// exchange sends pkt and waits for a response of wantType whose header
// starts with wantPrefix after the type byte and which authentic accepts
// (nil accepts any), retransmitting on timeout with exponential backoff
// and jitter. A response failing either check is ignored, as a forgery
// from an on-path host would be. It returns a copy of the response, so
// the receive buffer is free for the next exchange. A ptReject response
// matching the prefix returns rejectErr (nil rejectErr ignores rejects):
// the server is reachable but has no state for this session/ticket, so
// retransmitting is pointless and the caller must re-handshake. Rejects
// are unauthenticated, but can at worst downgrade a 0-RTT send to a fresh
// 1-RTT handshake — they never bypass authentication.
//
// When every attempt runs out its timeout, the returned error joins the
// per-attempt failures with ErrTimeout (errors.Join), so the caller's log
// shows the full retransmit history — each attempt's timeout budget and
// underlying read error — while errors.Is(err, ErrTimeout) (and therefore
// Retryable) still holds.
func (c *Client) exchange(pkt []byte, wantType byte, wantPrefix []byte, rejectErr error, authentic func(resp []byte) bool) ([]byte, error) {
	buf := c.rbuf
	defer c.conn.SetReadDeadline(time.Time{})
	timeout := c.timeout
	var attemptErrs []error
	for attempt := 0; attempt <= c.retries; attempt++ {
		c.mx.attempts.Inc()
		if attempt > 0 {
			c.mx.retransmits.Inc()
		}
		c.mx.backoffMS.Observe(timeout.Milliseconds())
		if _, err := c.conn.WriteTo(pkt, c.remote); err != nil {
			return nil, fmt.Errorf("quicfast: write: %w", err)
		}
		deadline := time.Now().Add(c.jittered(timeout))
		for {
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				return nil, err
			}
			n, _, err := c.conn.ReadFrom(buf)
			if err != nil {
				// Timeout (or transient read failure): record this
				// attempt's outcome, back off, retransmit.
				attemptErrs = append(attemptErrs,
					fmt.Errorf("quicfast: attempt %d/%d (waited %v): %w",
						attempt+1, c.retries+1, timeout, err))
				break
			}
			if n < 1+len(wantPrefix) {
				continue
			}
			if rejectErr != nil && buf[0] == ptReject && hmacEqual(buf[1:1+len(wantPrefix)], wantPrefix) {
				c.mx.rejects.Inc()
				return nil, rejectErr
			}
			if buf[0] != wantType {
				continue
			}
			if !hmacEqual(buf[1:1+len(wantPrefix)], wantPrefix) {
				continue
			}
			if authentic != nil && !authentic(buf[:n]) {
				continue
			}
			return append([]byte(nil), buf[:n]...), nil
		}
		timeout = time.Duration(float64(timeout) * c.backoffFactor)
		if timeout > c.timeoutMax {
			timeout = c.timeoutMax
		}
	}
	c.mx.timeouts.Inc()
	return nil, errors.Join(append(attemptErrs, ErrTimeout)...)
}

// jittered perturbs an attempt timeout by ±jitterFrac.
func (c *Client) jittered(d time.Duration) time.Duration {
	if c.jitterFrac <= 0 {
		return d
	}
	f := 1 + c.jitterFrac*(2*c.brng.Float64()-1)
	return time.Duration(float64(d) * f)
}
