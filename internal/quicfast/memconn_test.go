package quicfast

import (
	"io"
	"net"
	"os"
	"time"
)

// memAddr names a memConn endpoint.
type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memConn is an in-memory net.PacketConn that runs a client and a server
// on one goroutine. WriteTo hands a copy of each datagram to send (nil
// discards it); ReadFrom pops the datagrams queued on the conn and times
// out at once when none is queued — the peer answers inside WriteTo, so an
// empty queue means no answer is coming.
type memConn struct {
	addr  memAddr
	send  func(pkt []byte, from net.Addr)
	queue [][]byte
}

func (c *memConn) ReadFrom(p []byte) (int, net.Addr, error) {
	if len(c.queue) == 0 {
		return 0, nil, os.ErrDeadlineExceeded
	}
	n := copy(p, c.queue[0])
	c.queue = c.queue[1:]
	return n, memAddr("peer"), nil
}

func (c *memConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	if c.send != nil {
		c.send(append([]byte(nil), p...), c.addr)
	}
	return len(p), nil
}

func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return c.addr }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// memPair wires a client and a server over memConns: every client
// datagram runs through Server.handlePacket before WriteTo returns, and
// the server's answers queue on the client's conn. The client makes a
// single attempt per exchange.
func memPair(cliRand, srvRand io.Reader, handler func(Message)) (cli *Client, srv *Server, cc, sc *memConn) {
	cc, sc = &memConn{addr: "client"}, &memConn{addr: "server"}
	srv = NewServer(sc, testPSK, handler, WithServerRand(srvRand))
	cli = NewClient(cc, sc.addr, testPSK, WithClientRand(cliRand), WithRetries(0))
	cc.send = func(p []byte, from net.Addr) { srv.handlePacket(p, from) }
	sc.send = func(p []byte, _ net.Addr) { cc.queue = append(cc.queue, p) }
	return cli, srv, cc, sc
}

// constReader yields one byte forever. crypto/ecdh may read one extra
// byte at random before a key; with a constant stream every key, ID and
// ticket still comes out the same on every run.
type constReader byte

func (r constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}
