package quicfast

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestZeroRTTDeliverAllocCeiling pins what one 0-RTT Deliver round trip
// allocates, client and server together, over loopback UDP with a no-op
// handler and an attestation-sized payload. The early-data keys are
// derived once per ticket and both ends reuse one receive buffer, so what
// remains is the sealed datagram, the opened payload, the ack, nonces and
// the socket layer's addresses. Deriving keys per datagram and allocating
// a 64 KiB buffer per exchange read 73 allocations and about 74 KB.
func TestZeroRTTDeliverAllocCeiling(t *testing.T) {
	const (
		maxAllocs = 24
		maxBytes  = 4 << 10
		runs      = 200
	)
	sconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sconn, testPSK, func(Message) {}, WithServerRand(rand.New(rand.NewSource(1))))
	go func() { _ = srv.Serve() }()
	defer srv.Close()
	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	cli := NewClient(cconn, sconn.LocalAddr(), testPSK,
		WithClientRand(rand.New(rand.NewSource(2))), WithTimeout(2*time.Second))
	if err := cli.Handshake(); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xa5}, 440) // an attestation with a short device name
	deliver := func() {
		if zero, err := cli.Deliver(payload); err != nil || !zero {
			t.Fatalf("Deliver: zero-rtt %v, err %v", zero, err)
		}
	}
	for i := 0; i < 10; i++ {
		deliver()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		deliver()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("0-RTT Deliver round trip: %.1f allocs, %.0f B", allocs, bytesPer)
	if allocs > maxAllocs || bytesPer > maxBytes {
		t.Fatalf("0-RTT Deliver round trip = %.1f allocs, %.0f B; ceiling %d allocs, %d B", allocs, bytesPer, maxAllocs, maxBytes)
	}
}

// TestZeroRTTKeysCachedMatchFresh checks the early-data key the client
// caches at the handshake seals exactly what a key freshly derived from
// the ticket would, across packet numbers and again after a re-handshake
// rotates the ticket, and that the server, holding its own cached key,
// delivers every such datagram. The ticket and its resumption secret are
// read off the wire, from the handshake reply.
func TestZeroRTTKeysCachedMatchFresh(t *testing.T) {
	var got []Message
	cli, _, _, sc := memPair(rand.New(rand.NewSource(3)), rand.New(rand.NewSource(4)),
		func(m Message) { got = append(got, m) })
	var replies [][]byte
	forward := sc.send
	sc.send = func(p []byte, from net.Addr) {
		replies = append(replies, p)
		forward(p, from)
	}
	var prevTicket []byte
	for round := 0; round < 2; round++ {
		replies = replies[:0]
		if err := cli.Handshake(); err != nil {
			t.Fatal(err)
		}
		reply := replies[0]
		hdr := 1 + connIDLen + pubKeyLen + randomLen + macLen
		ticket, err := cli.keys.serverAEAD.Open(nil, nonceFor(cli.keys.serverIV, 0), reply[hdr:], reply[:1+connIDLen])
		if err != nil {
			t.Fatal(err)
		}
		ticketID, resumption := ticket[:ticketIDLen], ticket[ticketIDLen:]
		if bytes.Equal(ticketID, prevTicket) {
			t.Fatal("re-handshake did not rotate the ticket")
		}
		prevTicket = ticketID
		aead, iv, err := zeroRTTKeys(resumption)
		if err != nil {
			t.Fatal(err)
		}
		for pn := uint32(1); pn <= 5; pn++ {
			payload := []byte(fmt.Sprintf("attestation %d/%d", round, pn))
			pkt, err := cli.RawZeroRTTDatagram(payload)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]byte{ptZeroRTT}, ticketID...)
			want = binary.BigEndian.AppendUint32(want, pn)
			want = aead.Seal(want, nonceFor(iv, pn), payload, want)
			if !bytes.Equal(pkt, want) {
				t.Fatalf("round %d packet %d: cached key sealed\n%x\nfresh key seals\n%x", round, pn, pkt, want)
			}
			n := len(got)
			if err := cli.Inject(pkt); err != nil {
				t.Fatal(err)
			}
			if len(got) != n+1 || !got[n].ZeroRTT || !bytes.Equal(got[n].Payload, payload) {
				t.Fatalf("round %d packet %d: server did not deliver the datagram", round, pn)
			}
		}
	}
}
