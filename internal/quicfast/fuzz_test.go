package quicfast

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// datagramFixture is a client and a server after one completed handshake,
// both seeded with constant entropy so the keys, and so the committed
// corpus, are the same on every run.
type datagramFixture struct {
	cli      *Client
	sessions map[string]serverSession // the server's tables right after the handshake
	tickets  map[string]ticketState
	seeds    map[string][]byte
}

func newDatagramFixture(tb testing.TB) *datagramFixture {
	tb.Helper()
	cli, srv, cc, _ := memPair(constReader(0x17), constReader(0x42), nil)
	var sent [][]byte
	deliver := cc.send
	cc.send = func(p []byte, from net.Addr) {
		sent = append(sent, p)
		deliver(p, from)
	}
	if err := cli.Handshake(); err != nil {
		tb.Fatal(err)
	}
	fx := &datagramFixture{
		cli:      cli,
		sessions: make(map[string]serverSession),
		tickets:  make(map[string]ticketState),
	}
	for k, v := range srv.sessions {
		fx.sessions[k] = *v
	}
	for k, v := range srv.tickets {
		fx.tickets[k] = *v
	}
	if err := cli.Send([]byte("attestation over 1-RTT")); err != nil {
		tb.Fatal(err)
	}
	if err := cli.SendZeroRTT([]byte("attestation over 0-RTT")); err != nil {
		tb.Fatal(err)
	}
	initial, data, zero := sent[0], sent[1], sent[2]
	fx.seeds = map[string][]byte{"initial": initial, "data": data, "zero-rtt": zero, "empty": {}}
	cut := func(name string, pkt []byte, at ...int) {
		for _, n := range at {
			fx.seeds[name+"-cut-"+strconv.Itoa(n)] = pkt[:n]
		}
	}
	cut("initial", initial, 1, 1+connIDLen, 1+connIDLen+pubKeyLen, 1+connIDLen+pubKeyLen+randomLen, len(initial)-1)
	cut("data", data, 1, 1+connIDLen, dataHdrLen, len(data)-1)
	cut("zero-rtt", zero, 1, 1+ticketIDLen, zeroHdrLen, len(zero)-1)
	return fx
}

// server builds a fresh server holding the fixture's post-handshake
// tables, writing to a discard conn.
func (fx *datagramFixture) server(handler func(Message)) *Server {
	srv := NewServer(&memConn{addr: "server"}, testPSK, handler, WithServerRand(constReader(0x42)))
	for k, v := range fx.sessions {
		srv.sessions[k] = &v
	}
	for k, v := range fx.tickets {
		srv.tickets[k] = &v
	}
	return srv
}

// openKnown opens pkt under the key the fixture's client holds for its
// type, returning ok only if it is sealed under that key.
func (fx *datagramFixture) openKnown(pkt []byte) (plain []byte, zeroRTT, ok bool) {
	var (
		aead   cipher.AEAD
		iv     [12]byte
		id     []byte
		hdrLen int
	)
	switch {
	case len(pkt) >= dataHdrLen && pkt[0] == ptData:
		aead, iv, id, hdrLen = fx.cli.keys.clientAEAD, fx.cli.keys.clientIV, fx.cli.connID[:], dataHdrLen
	case len(pkt) >= zeroHdrLen && pkt[0] == ptZeroRTT:
		aead, iv, id, hdrLen, zeroRTT = fx.cli.zeroAEAD, fx.cli.zeroIV, fx.cli.ticketID, zeroHdrLen, true
	default:
		return nil, false, false
	}
	if !bytes.Equal(pkt[1:1+len(id)], id) {
		return nil, false, false
	}
	pktNum := binary.BigEndian.Uint32(pkt[1+len(id) : hdrLen])
	plain, err := aead.Open(nil, nonceFor(iv, pktNum), pkt[hdrLen:], pkt[:hdrLen])
	return plain, zeroRTT, err == nil
}

// dumpState renders the server's tables and counters, probing every key
// by sealing a fixed message, so a table entry that aliased a datagram
// buffer shows up as a changed dump once that buffer is overwritten.
func dumpState(s *Server) string {
	var b strings.Builder
	probe := func(aead cipher.AEAD, iv [12]byte) {
		fmt.Fprintf(&b, " %x:%x", iv, aead.Seal(nil, nonceFor(iv, 7), []byte("probe"), nil))
	}
	keys := make([]string, 0, len(s.sessions))
	for k := range s.sessions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ss := s.sessions[k]
		fmt.Fprintf(&b, "session %x high=%d", k, ss.highPkt)
		probe(ss.keys.clientAEAD, ss.keys.clientIV)
		probe(ss.keys.serverAEAD, ss.keys.serverIV)
		b.WriteByte('\n')
	}
	keys = keys[:0]
	for k := range s.tickets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tk := s.tickets[k]
		fmt.Fprintf(&b, "ticket %x high=%d", k, tk.highPkt)
		probe(tk.aead, tk.iv)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%+v", s.Stats)
	return b.String()
}

func dumpMessages(msgs []Message) string {
	var b strings.Builder
	for _, m := range msgs {
		fmt.Fprintf(&b, "%x zero=%v session=%s\n", m.Payload, m.ZeroRTT, m.Session)
	}
	return b.String()
}

// FuzzServerDatagram drives arbitrary bytes through Server.handlePacket,
// the server's whole pre-authentication surface, on a server holding one
// completed handshake and answering into a discard conn. Invariants:
//  1. It never panics.
//  2. The handler runs only for a datagram sealed under a key the server
//     handed out, and sees exactly its plaintext; handling the same bytes
//     again never reaches the handler (anti-replay).
//  3. Overwriting the datagram buffer after the call changes no session,
//     ticket or delivered message: nothing the server keeps aliases the
//     buffer Serve reuses for the next read.
func FuzzServerDatagram(f *testing.F) {
	fx := newDatagramFixture(f)
	for _, b := range fx.seeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Message
		srv := fx.server(func(m Message) { got = append(got, m) })
		buf := append([]byte(nil), data...)
		srv.handlePacket(buf, memAddr("peer"))

		plain, zeroRTT, known := fx.openKnown(data)
		switch {
		case len(got) > 1:
			t.Fatalf("one datagram delivered %d messages", len(got))
		case len(got) == 1 && !known:
			t.Fatalf("delivered a datagram sealed under no known key: %x", data)
		case len(got) == 1 && (!bytes.Equal(got[0].Payload, plain) || got[0].ZeroRTT != zeroRTT):
			t.Fatalf("delivered %x (zero-rtt %v), sealed %x (zero-rtt %v)", got[0].Payload, got[0].ZeroRTT, plain, zeroRTT)
		case len(got) == 0 && known:
			t.Fatalf("a fresh datagram sealed under a known key was not delivered: %x", data)
		}

		state, msgs := dumpState(srv), dumpMessages(got)
		for i := range buf {
			buf[i] ^= 0xff
		}
		if after := dumpState(srv); after != state {
			t.Fatalf("overwriting the datagram changed server state:\nbefore %s\nafter  %s", state, after)
		}
		if after := dumpMessages(got); after != msgs {
			t.Fatalf("overwriting the datagram changed a delivered message:\nbefore %s\nafter  %s", msgs, after)
		}

		n := len(got)
		srv.handlePacket(append([]byte(nil), data...), memAddr("peer"))
		if len(got) != n {
			t.Fatalf("replayed datagram reached the handler: %x", data)
		}
	})
}

// TestFuzzCorpusCommitted keeps the committed FuzzServerDatagram corpus in
// lockstep with the fixture's seeds. With FIAT_WRITE_FUZZ_CORPUS=1 it
// (re)writes the seed files; otherwise it fails if any committed seed is
// missing or differs.
func TestFuzzCorpusCommitted(t *testing.T) {
	write := os.Getenv("FIAT_WRITE_FUZZ_CORPUS") == "1"
	dir := filepath.Join("testdata", "fuzz", "FuzzServerDatagram")
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range newDatagramFixture(t).seeds {
		path := filepath.Join(dir, name)
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(b)))
		if write {
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("committed fuzz seed missing (regenerate with FIAT_WRITE_FUZZ_CORPUS=1): %v", err)
		}
		if string(committed) != content {
			t.Fatalf("committed fuzz seed %s is stale (regenerate with FIAT_WRITE_FUZZ_CORPUS=1)", name)
		}
	}
}
