package netsim

import (
	"net/netip"
	"time"

	"fiat/internal/intercept"
	"fiat/internal/packet"
)

// BatchInspector is the on-path access-control hook: it decides a batch of
// frames traversing the gateway at one virtual instant, returning one
// allow/drop verdict per frame. core.FrameGate adapts the proxy's
// ProcessBatch to this interface, so a gateway fronting a whole smart home
// hands the engine multi-device batches instead of single packets.
type BatchInspector interface {
	InspectBatch(frames [][]byte, now time.Time) []bool
}

// Gateway is the home router: it bridges the LAN to the cloud locations.
// Outbound frames addressed to it at L2 are re-addressed to the cloud node
// owning the destination IP; inbound cloud frames are re-addressed into the
// LAN using the gateway's ARP table — which an ARP spoofer can poison, the
// paper's interception vector.
//
// With an inspector installed (SetInspector), forwarding runs in batches:
// frames arriving at the same virtual instant are buffered and decided
// together; the buffer flushes when time advances past the instant, when it
// reaches the configured batch size, or on an explicit Flush. All gateway
// callbacks run on the virtual-clock goroutine, so the buffer needs no lock.
type Gateway struct {
	Node *Node
	ARP  *intercept.ARPTable
	nw   *Network

	insp      BatchInspector
	maxBatch  int
	pending   []gwPending
	pendingAt time.Time

	// BatchStats counts inspector activity: batches flushed, frames
	// inspected, frames dropped by verdict.
	BatchStats struct {
		Batches, Frames, Dropped int
	}
}

type gwPending struct {
	frame    []byte
	src, dst packet.MAC
}

// NewGateway attaches a gateway to the network.
func NewGateway(nw *Network, name string, mac packet.MAC, ip netip.Addr) *Gateway {
	g := &Gateway{ARP: intercept.NewARPTable(), nw: nw}
	g.Node = &Node{Name: name, MAC: mac, IP: ip, Loc: LocLAN, Recv: g.recv}
	nw.Attach(g.Node)
	return g
}

// SetInspector installs the batch access-control hook. maxBatch bounds how
// many same-instant frames accumulate before a forced flush (<= 0 selects
// 64). Passing nil restores plain immediate forwarding (any buffered frames
// are flushed first).
func (g *Gateway) SetInspector(insp BatchInspector, maxBatch int) {
	g.Flush()
	if maxBatch <= 0 {
		maxBatch = 64
	}
	g.insp = insp
	g.maxBatch = maxBatch
}

func (g *Gateway) recv(self *Node, frame []byte, now time.Time) {
	p := packet.Decode(frame, packet.CaptureInfo{Timestamp: now})
	if p.ARP() != nil {
		g.ARP.Observe(p)
		return
	}
	ip := p.IPv4()
	if ip == nil {
		return
	}
	if dst, ok := g.nw.NodeByIP(ip.DstIP); ok && dst.Loc != LocLAN {
		// LAN -> WAN: forward toward the cloud node.
		g.enqueue(frame, self.MAC, dst.MAC, now)
		return
	}
	// WAN -> LAN (or LAN -> LAN routed through us): resolve via ARP.
	if mac, ok := g.ARP.Lookup(ip.DstIP); ok {
		g.enqueue(frame, self.MAC, mac, now)
	}
}

// enqueue routes one forwardable frame through the inspector batch (or
// straight out when no inspector is installed). A frame arriving at a later
// instant first flushes the previous instant's batch, so inspected frames
// never pass one another.
func (g *Gateway) enqueue(frame []byte, src, dst packet.MAC, now time.Time) {
	if g.insp == nil {
		g.forward(frame, src, dst)
		return
	}
	if len(g.pending) > 0 && !now.Equal(g.pendingAt) {
		g.Flush()
	}
	g.pendingAt = now
	g.pending = append(g.pending, gwPending{frame: frame, src: src, dst: dst})
	if len(g.pending) >= g.maxBatch {
		g.Flush()
	}
}

// Flush decides and forwards any buffered frames. Call it after the last
// event of a simulation step: the gateway cannot know no further same-instant
// frames are coming.
func (g *Gateway) Flush() {
	if g.insp == nil || len(g.pending) == 0 {
		return
	}
	pend := g.pending
	g.pending = nil
	frames := make([][]byte, len(pend))
	for i := range pend {
		frames[i] = pend[i].frame
	}
	allow := g.insp.InspectBatch(frames, g.pendingAt)
	g.BatchStats.Batches++
	g.BatchStats.Frames += len(pend)
	for i, pd := range pend {
		if i < len(allow) && !allow[i] {
			g.BatchStats.Dropped++
			continue
		}
		g.forward(pd.frame, pd.src, pd.dst)
	}
}

func (g *Gateway) forward(frame []byte, srcMAC, dstMAC packet.MAC) {
	out := make([]byte, len(frame))
	copy(out, frame)
	copy(out[0:6], dstMAC[:])
	copy(out[6:12], srcMAC[:])
	g.nw.SendFrame(out)
}
