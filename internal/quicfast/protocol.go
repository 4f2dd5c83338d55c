// Package quicfast is a minimal QUIC-like datagram transport purpose-built
// for FIAT's attestation channel (§5.3 "Fast and Secure Channel"): a
// 1-RTT handshake (X25519 + HKDF, PSK-authenticated so only paired devices
// connect), session tickets enabling 0-RTT sends, AES-256-GCM protection of
// payload and metadata, and server-side anti-replay state — the property the
// paper relies on ("it is feasible for the IoT proxy to keep a state of all
// previously held connections, which would prevent a replay attack").
//
// It runs over any net.PacketConn: real UDP sockets for the latency
// experiments, or a latency-injecting wrapper emulating WAN/mobile paths.
// It is not RFC 9000 — no streams, versioning, or congestion control — but
// preserves QUIC's round-trip structure, which is what Table 7 measures.
package quicfast

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"fiat/internal/cryptoutil"
)

// Packet type bytes. High bit set = long header (handshake), like QUIC.
const (
	ptInitial   = 0x81
	ptReply     = 0x82
	ptZeroRTT   = 0x83
	ptData      = 0x41
	ptAck       = 0x42
	ptZeroAck   = 0x43
	ptHsFin     = 0x44
	ptReject    = 0x45
	connIDLen   = 8
	ticketIDLen = 16
	macLen      = 32
	pubKeyLen   = 32
	randomLen   = 16
	secretLen   = 32
	ackPlain    = "ack"
	dataHdrLen  = 1 + connIDLen + 4   // [ptData][connID][pktNum], also the 1-RTT ack's header
	zeroHdrLen  = 1 + ticketIDLen + 4 // [ptZeroRTT][ticketID][pktNum], also the 0-RTT ack's header
	// zeroRTTAckBit is XORed into an early-data ack's packet number so
	// its nonce never collides with the data packet's own.
	zeroRTTAckBit = 0x80000000
)

// Protocol errors.
var (
	ErrAuth          = errors.New("quicfast: authentication failed")
	ErrReplay        = errors.New("quicfast: replayed 0-RTT packet")
	ErrUnknownTicket = errors.New("quicfast: unknown session ticket")
	ErrStaleSession  = errors.New("quicfast: server no longer knows this session")
	ErrMalformed     = errors.New("quicfast: malformed packet")
	ErrTimeout       = errors.New("quicfast: timed out waiting for peer")
)

// The error taxonomy splits failures by the recovery they admit:
//
//   - Retryable: transient — the same send may succeed later (the network
//     dropped or delayed packets).
//   - NeedsRehandshake: the server lost or expired this client's session
//     or ticket state (e.g. a proxy restart); a fresh 1-RTT handshake
//     recovers, retrying as-is never will.
//   - Anything else (ErrAuth, ErrMalformed, ...) is fatal for the attempt:
//     retrying with the same credentials cannot help.

// Retryable reports whether the failure is transient and the same operation
// may succeed if simply retried.
func Retryable(err error) bool {
	return errors.Is(err, ErrTimeout)
}

// NeedsRehandshake reports whether the failure means the cached session or
// ticket state is stale and a fresh 1-RTT handshake is required.
func NeedsRehandshake(err error) bool {
	return errors.Is(err, ErrUnknownTicket) || errors.Is(err, ErrStaleSession)
}

// sessionKeys holds the directional AEAD keys of one connection.
type sessionKeys struct {
	clientAEAD cipher.AEAD
	serverAEAD cipher.AEAD
	clientIV   [12]byte
	serverIV   [12]byte
}

// deriveKeys computes directional keys from a shared secret and transcript
// salt. Both sides call it with identical inputs.
func deriveKeys(shared, salt []byte) (*sessionKeys, error) {
	var ks sessionKeys
	mk := func(info string, ivOut *[12]byte) (cipher.AEAD, error) {
		keyMat, err := cryptoutil.HKDF(shared, salt, []byte(info), 32+12)
		if err != nil {
			return nil, err
		}
		copy(ivOut[:], keyMat[32:])
		block, err := aes.NewCipher(keyMat[:32])
		if err != nil {
			return nil, err
		}
		return cipher.NewGCM(block)
	}
	var err error
	if ks.clientAEAD, err = mk("fiat-quic client", &ks.clientIV); err != nil {
		return nil, err
	}
	if ks.serverAEAD, err = mk("fiat-quic server", &ks.serverIV); err != nil {
		return nil, err
	}
	return &ks, nil
}

// zeroRTTKeys derives the early-data AEAD from a resumption secret. The
// keys depend only on the ticket, so each end calls it once per ticket:
// the server when it mints one, the client when it receives one.
func zeroRTTKeys(resumption []byte) (cipher.AEAD, [12]byte, error) {
	var iv [12]byte
	keyMat, err := cryptoutil.HKDF(resumption, nil, []byte("fiat-quic 0rtt"), 32+12)
	if err != nil {
		return nil, iv, err
	}
	copy(iv[:], keyMat[32:])
	block, err := aes.NewCipher(keyMat[:32])
	if err != nil {
		return nil, iv, err
	}
	aead, err := cipher.NewGCM(block)
	return aead, iv, err
}

// nonceFor XORs the packet number into the static IV, QUIC-style.
func nonceFor(iv [12]byte, pktNum uint32) []byte {
	n := make([]byte, 12)
	copy(n, iv[:])
	binary.BigEndian.PutUint32(n[8:], binary.BigEndian.Uint32(n[8:])^pktNum)
	return n
}

// sealAck builds [typ][prefix]["ack" sealed under aead at nonce], the
// header being the additional data. Only a holder of the key can produce
// it, so the client can tell a real delivery ack from a forged one.
func sealAck(typ byte, prefix []byte, aead cipher.AEAD, nonce []byte) []byte {
	ack := make([]byte, 0, 1+len(prefix)+len(ackPlain)+aead.Overhead())
	ack = append(ack, typ)
	ack = append(ack, prefix...)
	return aead.Seal(ack, nonce, []byte(ackPlain), ack)
}

// ackOpens reports whether ack, whose first hdrLen bytes are the header,
// is one sealAck built under aead at nonce. It decrypts in place.
func ackOpens(aead cipher.AEAD, nonce, ack []byte, hdrLen int) bool {
	plain, err := aead.Open(ack[hdrLen:hdrLen], nonce, ack[hdrLen:], ack[:hdrLen])
	return err == nil && string(plain) == ackPlain
}

// pskMAC authenticates handshake transcripts under the pairing PSK,
// rejecting unauthorized devices during the handshake itself.
func pskMAC(psk []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, psk)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

// newX25519 generates an ephemeral key pair from the given entropy source.
func newX25519(rand io.Reader) (*ecdh.PrivateKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("quicfast: ephemeral key: %w", err)
	}
	return priv, nil
}
