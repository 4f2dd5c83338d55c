package quicfast

import (
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestServerSurvivesGarbage floods the server with random datagrams, valid
// type bytes with junk bodies, and truncated packets: nothing may panic,
// nothing may be delivered to the handler, and a legitimate client must
// still work afterwards.
func TestServerSurvivesGarbage(t *testing.T) {
	sconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	srv := NewServer(sconn, testPSK, func(Message) { delivered.Add(1) },
		WithServerRand(rand.New(rand.NewSource(1))))
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	attacker, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		n := rng.Intn(300)
		pkt := make([]byte, n)
		rng.Read(pkt)
		if n > 0 && i%3 == 0 {
			// Force a known type byte so the typed handlers also run.
			types := []byte{ptInitial, ptReply, ptZeroRTT, ptData, ptAck}
			pkt[0] = types[rng.Intn(len(types))]
		}
		if _, err := attacker.WriteTo(pkt, sconn.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	if n := delivered.Load(); n != 0 {
		t.Fatalf("garbage delivered %d messages", n)
	}

	// The server still serves real clients.
	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	cli := NewClient(cconn, sconn.LocalAddr(), testPSK,
		WithClientRand(rand.New(rand.NewSource(3))), WithTimeout(500*time.Millisecond))
	if err := cli.Handshake(); err != nil {
		t.Fatalf("handshake after garbage flood: %v", err)
	}
	if err := cli.Send([]byte("still-alive")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && delivered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := delivered.Load(); n != 1 {
		t.Fatalf("legitimate message not delivered after flood (delivered=%d)", n)
	}
}

// TestClientIgnoresForgedAcks checks the client does not accept an ack of
// the wrong type or with the wrong prefix, nor one with the right type and
// prefix — both travel in clear — whose tag does not open under the
// server's key: an on-path host must not be able to confirm a delivery.
func TestClientIgnoresForgedAcks(t *testing.T) {
	sconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sconn.Close()
	// A fake "server" that answers every datagram with garbage acks.
	go func() {
		buf := make([]byte, 2048)
		for {
			n, addr, err := sconn.ReadFrom(buf)
			if err != nil {
				return
			}
			_ = n
			junk := make([]byte, 64)
			junk[0] = ptAck
			_, _ = sconn.WriteTo(junk, addr)
		}
	}()
	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	cli := NewClient(cconn, sconn.LocalAddr(), testPSK,
		WithClientRand(rand.New(rand.NewSource(4))),
		WithTimeout(100*time.Millisecond), WithRetries(1))
	if err := cli.Handshake(); err == nil {
		t.Fatal("handshake succeeded against a garbage server")
	}

	// A real handshake, then a fake server that echoes each packet's
	// header as an ack of the right type with a junk tag.
	cli, _, _ = pair(t, testPSK)
	cli.retries = 1
	if err := cli.Handshake(); err != nil {
		t.Fatal(err)
	}
	forger, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer forger.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			n, addr, err := forger.ReadFrom(buf)
			if err != nil {
				return
			}
			hdr, typ := dataHdrLen, byte(ptAck)
			if buf[0] == ptZeroRTT {
				hdr, typ = zeroHdrLen, ptZeroAck
			}
			if n < hdr {
				continue
			}
			ack := append([]byte{typ}, buf[1:hdr]...)
			ack = append(ack, make([]byte, len(ackPlain)+16)...)
			_, _ = forger.WriteTo(ack, addr)
		}
	}()
	cli.remote = forger.LocalAddr()
	cli.timeout = 50 * time.Millisecond
	if err := cli.Send([]byte("x")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Send with a forged ack: err = %v, want ErrTimeout", err)
	}
	if err := cli.SendZeroRTT([]byte("x")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("SendZeroRTT with a forged ack: err = %v, want ErrTimeout", err)
	}
}
