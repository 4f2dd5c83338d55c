package quicfast

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"sync"

	"fiat/internal/obs"
)

// Message is one decrypted application payload delivered to the server.
type Message struct {
	// Payload is the plaintext application data, freshly allocated for
	// this message: the handler owns it and may keep it. It never aliases
	// the datagram buffer, which Serve reuses for the next read.
	Payload []byte
	// ZeroRTT reports whether it arrived as early data.
	ZeroRTT bool
	// Session identifies the sending session (connection or ticket ID).
	Session string
}

// Server is the proxy-side endpoint. It accepts PSK-authenticated
// handshakes, issues session tickets, decrypts 1-RTT and 0-RTT payloads,
// enforces anti-replay, and hands messages to the configured handler.
type Server struct {
	conn    net.PacketConn
	psk     []byte
	rand    io.Reader
	handler func(Message)

	mu       sync.Mutex
	sessions map[string]*serverSession // by connID
	tickets  map[string]*ticketState   // by ticketID
	closed   bool

	// Stats counts protocol events; it is guarded by mu. Read it via
	// StatsSnapshot while Serve is running.
	Stats ServerStats

	mx serverMetrics
}

// serverMetrics mirrors ServerStats into a registry (nil handles are no-ops
// until WithServerObs installs one), so the attestation transport shows up
// in the same snapshot as the decision pipeline.
type serverMetrics struct {
	handshakes   *obs.Counter
	messages     *obs.Counter
	zeroRTT      *obs.Counter
	replays      *obs.Counter
	authFailures *obs.Counter
	rejects      *obs.Counter
}

// WithServerObs wires the server's protocol counters into reg under the
// fiat_quicfast_server_* names.
func WithServerObs(reg *obs.Registry) ServerOption {
	return func(s *Server) {
		s.mx = serverMetrics{
			handshakes:   reg.Counter("fiat_quicfast_server_handshakes_total"),
			messages:     reg.Counter("fiat_quicfast_server_messages_total"),
			zeroRTT:      reg.Counter("fiat_quicfast_server_zero_rtt_total"),
			replays:      reg.Counter("fiat_quicfast_server_replays_total"),
			authFailures: reg.Counter("fiat_quicfast_server_auth_failures_total"),
			rejects:      reg.Counter("fiat_quicfast_server_rejects_total"),
		}
	}
}

// ServerStats are the protocol event counters.
type ServerStats struct {
	Handshakes, Messages, ZeroRTT, Replays, AuthFailures int
	// Rejects counts packets refused for unknown session or ticket state
	// (e.g. after a server restart), answered with an explicit reject so
	// the client can fall back to a fresh 1-RTT handshake immediately
	// instead of retransmitting into the void.
	Rejects int
}

type serverSession struct {
	keys    *sessionKeys
	highPkt uint32
}

// ticketState holds a ticket's early-data key, derived once when the
// ticket is minted, and its anti-replay high-water mark.
type ticketState struct {
	aead    cipher.AEAD
	iv      [12]byte
	highPkt uint32 // strictly increasing packet numbers defeat replay
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithServerRand overrides the entropy source (tests).
func WithServerRand(r io.Reader) ServerOption {
	return func(s *Server) { s.rand = r }
}

// NewServer wraps conn. The handler runs on the read loop goroutine; keep it
// fast or dispatch. Start the loop with Serve.
func NewServer(conn net.PacketConn, psk []byte, handler func(Message), opts ...ServerOption) *Server {
	s := &Server{
		conn:     conn,
		psk:      append([]byte(nil), psk...),
		rand:     rand.Reader,
		handler:  handler,
		sessions: make(map[string]*serverSession),
		tickets:  make(map[string]*ticketState),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Serve reads datagrams until the connection closes. Run it in a goroutine.
// Each datagram is handled in place in the one read buffer: the handlers
// keep no reference to it (table keys are string copies, payloads are
// fresh Open output).
func (s *Server) Serve() error {
	buf := make([]byte, 65535)
	for {
		n, addr, err := s.conn.ReadFrom(buf)
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.handlePacket(buf[:n], addr)
	}
}

// Close shuts the server down.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.conn.Close()
}

func (s *Server) handlePacket(pkt []byte, addr net.Addr) {
	if len(pkt) < 1 {
		return
	}
	switch pkt[0] {
	case ptInitial:
		s.handleInitial(pkt, addr)
	case ptData:
		s.handleData(pkt, addr)
	case ptZeroRTT:
		s.handleZeroRTT(pkt, addr)
	}
}

// handleInitial processes [type][connID][cpub][crandom][mac] and answers
// with [type][connID][spub][srandom][mac][sealed ticket].
func (s *Server) handleInitial(pkt []byte, addr net.Addr) {
	want := 1 + connIDLen + pubKeyLen + randomLen + macLen
	if len(pkt) != want {
		return
	}
	connID := pkt[1 : 1+connIDLen]
	cpubRaw := pkt[1+connIDLen : 1+connIDLen+pubKeyLen]
	crandom := pkt[1+connIDLen+pubKeyLen : 1+connIDLen+pubKeyLen+randomLen]
	mac := pkt[len(pkt)-macLen:]
	if !hmacEqual(pskMAC(s.psk, []byte("init"), connID, cpubRaw, crandom), mac) {
		s.authFailure()
		return
	}
	cpub, err := ecdh.X25519().NewPublicKey(cpubRaw)
	if err != nil {
		return
	}
	spriv, err := newX25519(s.rand)
	if err != nil {
		return
	}
	shared, err := spriv.ECDH(cpub)
	if err != nil {
		return
	}
	srandom := make([]byte, randomLen)
	if _, err := io.ReadFull(s.rand, srandom); err != nil {
		return
	}
	salt := append(append([]byte(nil), crandom...), srandom...)
	keys, err := deriveKeys(shared, salt)
	if err != nil {
		return
	}
	// Mint a resumption ticket and protect it under the server AEAD so
	// only this client learns it.
	ticketID := make([]byte, ticketIDLen)
	resumption := make([]byte, secretLen)
	if _, err := io.ReadFull(s.rand, ticketID); err != nil {
		return
	}
	if _, err := io.ReadFull(s.rand, resumption); err != nil {
		return
	}
	zeroAEAD, zeroIV, err := zeroRTTKeys(resumption)
	if err != nil {
		return
	}
	ticketPlain := append(append([]byte(nil), ticketID...), resumption...)

	reply := make([]byte, 0, 256)
	reply = append(reply, ptReply)
	reply = append(reply, connID...)
	spubRaw := spriv.PublicKey().Bytes()
	reply = append(reply, spubRaw...)
	reply = append(reply, srandom...)
	reply = append(reply, pskMAC(s.psk, []byte("reply"), connID, spubRaw, srandom, crandom)...)
	box := keys.serverAEAD.Seal(nil, nonceFor(keys.serverIV, 0), ticketPlain, reply[:1+connIDLen])
	reply = append(reply, box...)

	s.mu.Lock()
	s.sessions[string(connID)] = &serverSession{keys: keys}
	s.tickets[string(ticketID)] = &ticketState{aead: zeroAEAD, iv: zeroIV}
	s.Stats.Handshakes++
	s.mx.handshakes.Inc()
	s.mu.Unlock()

	_, _ = s.conn.WriteTo(reply, addr)
}

// handleData processes a 1-RTT application packet and acks it.
func (s *Server) handleData(pkt []byte, addr net.Addr) {
	const hdr = dataHdrLen
	if len(pkt) < hdr {
		return
	}
	connID := pkt[1 : 1+connIDLen]
	pktNum := binary.BigEndian.Uint32(pkt[1+connIDLen : hdr])
	s.mu.Lock()
	sess, ok := s.sessions[string(connID)]
	s.mu.Unlock()
	if !ok {
		s.reject(pkt[1:hdr], addr)
		return
	}
	plain, err := sess.keys.clientAEAD.Open(nil, nonceFor(sess.keys.clientIV, pktNum), pkt[hdr:], pkt[:hdr])
	if err != nil {
		s.authFailure()
		return
	}
	s.mu.Lock()
	if pktNum <= sess.highPkt {
		s.Stats.Replays++
		s.mx.replays.Inc()
		s.mu.Unlock()
		return
	}
	sess.highPkt = pktNum
	s.Stats.Messages++
	s.mx.messages.Inc()
	s.mu.Unlock()

	ack := sealAck(ptAck, pkt[1:hdr], sess.keys.serverAEAD, nonceFor(sess.keys.serverIV, pktNum))
	_, _ = s.conn.WriteTo(ack, addr)

	if s.handler != nil {
		s.handler(Message{Payload: plain, Session: hex.EncodeToString(connID)})
	}
}

// handleZeroRTT processes [type][ticketID][pktnum][box]. Packet numbers
// must strictly increase per ticket: an exact replay reuses a number and is
// dropped.
func (s *Server) handleZeroRTT(pkt []byte, addr net.Addr) {
	const hdr = zeroHdrLen
	if len(pkt) < hdr {
		return
	}
	ticketID := pkt[1 : 1+ticketIDLen]
	pktNum := binary.BigEndian.Uint32(pkt[1+ticketIDLen : hdr])
	s.mu.Lock()
	tk, ok := s.tickets[string(ticketID)]
	s.mu.Unlock()
	if !ok {
		s.reject(pkt[1:hdr], addr)
		return
	}
	plain, err := tk.aead.Open(nil, nonceFor(tk.iv, pktNum), pkt[hdr:], pkt[:hdr])
	if err != nil {
		s.authFailure()
		return
	}
	s.mu.Lock()
	if pktNum <= tk.highPkt {
		s.Stats.Replays++
		s.mx.replays.Inc()
		s.mu.Unlock()
		return
	}
	tk.highPkt = pktNum
	s.Stats.Messages++
	s.Stats.ZeroRTT++
	s.mx.messages.Inc()
	s.mx.zeroRTT.Inc()
	s.mu.Unlock()

	ack := sealAck(ptZeroAck, pkt[1:hdr], tk.aead, nonceFor(tk.iv, pktNum^zeroRTTAckBit))
	_, _ = s.conn.WriteTo(ack, addr)

	if s.handler != nil {
		s.handler(Message{Payload: plain, ZeroRTT: true, Session: hex.EncodeToString(ticketID)})
	}
}

// authFailure counts a datagram that failed authentication.
func (s *Server) authFailure() {
	s.mu.Lock()
	s.Stats.AuthFailures++
	s.mx.authFailures.Inc()
	s.mu.Unlock()
}

// reject answers a packet whose session/ticket state is unknown with an
// explicit [ptReject][echoed header] so the client stops retransmitting and
// re-handshakes. The reject is unauthenticated by construction (the server
// has no keys for this peer); forging one can only downgrade a 0-RTT send
// to a fresh authenticated 1-RTT handshake, never bypass authentication.
func (s *Server) reject(echo []byte, addr net.Addr) {
	s.mu.Lock()
	s.Stats.Rejects++
	s.mx.rejects.Inc()
	s.mu.Unlock()
	rej := make([]byte, 0, 1+len(echo))
	rej = append(rej, ptReject)
	rej = append(rej, echo...)
	_, _ = s.conn.WriteTo(rej, addr)
}

// Replays reports the replay-rejection counter.
func (s *Server) Replays() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Stats.Replays
}

// StatsSnapshot returns a consistent copy of the counters, safe to read
// while Serve runs.
func (s *Server) StatsSnapshot() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Stats
}

func hmacEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
