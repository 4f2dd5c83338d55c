// Package features extracts the 66-dimensional feature vector the paper's
// event classifiers consume (§4.1): for each of the first (up to) 5 packets
// of an unpredictable event — direction, remote IP octets, protocol, TCP
// flags, ports, TLS version, packet length, inter-arrival time — plus
// aggregate statistics over the event head.
//
// Feature names follow the paper's convention (Table 4): "pkt1-proto",
// "pkt3-tls", "pkt1-dst-ip1", ….
package features

import (
	"fmt"
	"math"

	"fiat/internal/events"
	"fiat/internal/flows"
)

// HeadPackets is how many leading packets contribute per-packet features.
// The paper selects features from "the first (up to) 5 packets".
const HeadPackets = 5

// perPacket is the number of per-packet features.
const perPacket = 12

// aggregate is the number of event-level statistics.
const aggregate = 6

// Dim is the feature vector length: 5 packets x 12 features + 6 statistics.
const Dim = HeadPackets*perPacket + aggregate // 66

// Names returns the 66 feature names in vector order.
func Names() []string {
	names := make([]string, 0, Dim)
	for p := 1; p <= HeadPackets; p++ {
		names = append(names,
			fmt.Sprintf("pkt%d-direction", p),
			fmt.Sprintf("pkt%d-proto", p),
			fmt.Sprintf("pkt%d-tcp-flags", p),
			fmt.Sprintf("pkt%d-src-port", p),
			fmt.Sprintf("pkt%d-dst-port", p),
			fmt.Sprintf("pkt%d-tls", p),
			fmt.Sprintf("pkt%d-len", p),
			fmt.Sprintf("pkt%d-iat", p),
			fmt.Sprintf("pkt%d-dst-ip1", p),
			fmt.Sprintf("pkt%d-dst-ip2", p),
			fmt.Sprintf("pkt%d-dst-ip3", p),
			fmt.Sprintf("pkt%d-dst-ip4", p),
		)
	}
	names = append(names,
		"stat-pkt-count", "stat-total-bytes",
		"stat-mean-len", "stat-std-len",
		"stat-mean-iat", "stat-std-iat",
	)
	return names
}

// tlsCode maps a wire TLS version to a small ordinal (0 = no TLS record).
func tlsCode(v uint16) float64 {
	switch v {
	case 0x0301:
		return 1
	case 0x0302:
		return 2
	case 0x0303:
		return 3
	case 0x0304:
		return 4
	default:
		if v != 0 {
			return 5
		}
		return 0
	}
}

// Extract computes the feature vector for an event. Events shorter than
// HeadPackets are zero-padded, mirroring scikit-learn's fixed-width input.
func Extract(e *events.Event) []float64 {
	v := make([]float64, Dim)
	extractInto(e, v)
	return v
}

// ExtractInto computes the feature vector into buf, reusing its backing
// array when cap(buf) >= Dim (the per-device scratch of the compiled
// classification path); a smaller buffer is replaced. The returned slice
// always has length Dim and holds exactly what Extract would return.
func ExtractInto(e *events.Event, buf []float64) []float64 {
	if cap(buf) < Dim {
		buf = make([]float64, Dim)
	}
	v := buf[:Dim]
	for i := range v {
		v[i] = 0
	}
	extractInto(e, v)
	return v
}

// extractInto fills a zeroed Dim-length vector.
func extractInto(e *events.Event, v []float64) {
	head := e.Packets
	if len(head) > HeadPackets {
		head = head[:HeadPackets]
	}
	for i, p := range head {
		base := i * perPacket
		if p.Dir == flows.DirInbound {
			v[base+0] = 1
		}
		if p.Proto == "udp" {
			v[base+1] = 1
		}
		v[base+2] = float64(p.TCPFlags)
		// Ports from the device's perspective: src is the sender's port.
		srcPort, dstPort := p.LocalPort, p.RemotePort
		if p.Dir == flows.DirInbound {
			srcPort, dstPort = p.RemotePort, p.LocalPort
		}
		v[base+3] = float64(srcPort)
		v[base+4] = float64(dstPort)
		v[base+5] = tlsCode(p.TLSVersion)
		v[base+6] = float64(p.Size)
		if i > 0 {
			v[base+7] = head[i].Time.Sub(head[i-1].Time).Seconds()
		}
		if p.RemoteIP.Is4() {
			oct := p.RemoteIP.As4()
			for j := 0; j < 4; j++ {
				v[base+8+j] = float64(oct[j])
			}
		}
	}
	// Aggregates over the head.
	n := len(head)
	agg := HeadPackets * perPacket
	v[agg+0] = float64(n)
	var total float64
	for _, p := range head {
		total += float64(p.Size)
	}
	v[agg+1] = total
	if n > 0 {
		mean := total / float64(n)
		v[agg+2] = mean
		var varSum float64
		for _, p := range head {
			d := float64(p.Size) - mean
			varSum += d * d
		}
		v[agg+3] = sqrt(varSum / float64(n))
	}
	if n > 1 {
		// The per-packet slots already hold each inter-arrival time, so the
		// aggregate needs one pass over them — no intermediate slice — with
		// the variance in sum-of-squares form.
		var sum, sumSq float64
		for i := 1; i < n; i++ {
			x := v[i*perPacket+7]
			sum += x
			sumSq += x * x
		}
		nn := float64(n - 1)
		mean := sum / nn
		v[agg+4] = mean
		v[agg+5] = sqrt(sumSq/nn - mean*mean)
	}
}

// ExtractAll maps Extract over events.
func ExtractAll(evs []*events.Event) [][]float64 {
	out := make([][]float64, len(evs))
	for i, e := range evs {
		out[i] = Extract(e)
	}
	return out
}

// Labels extracts the event categories as class indices suitable for the ml
// package: 0 = non-manual (control/automated/unknown), 1 = manual. The
// paper's headline classification task is manual vs non-manual.
func Labels(evs []*events.Event) []int {
	out := make([]int, len(evs))
	for i, e := range evs {
		if e.Category == flows.CategoryManual {
			out[i] = 1
		}
	}
	return out
}

// MulticlassLabels extracts three-way labels: 0 control/unknown,
// 1 automated, 2 manual. Table 2's balanced accuracy "assigns the same
// weight to all traffic: control, automated, and manual".
func MulticlassLabels(evs []*events.Event) []int {
	out := make([]int, len(evs))
	for i, e := range evs {
		switch e.Category {
		case flows.CategoryAutomated:
			out[i] = 1
		case flows.CategoryManual:
			out[i] = 2
		}
	}
	return out
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
