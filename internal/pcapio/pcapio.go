// Package pcapio reads and writes classic libpcap capture files, so traces
// produced by the simulators interoperate with tcpdump/Wireshark and the
// repository's own tools. Both the microsecond (0xa1b2c3d4) and nanosecond
// (0xa1b23c4d) magics are supported, in either byte order.
package pcapio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"fiat/internal/packet"
)

// File magics.
const (
	magicMicro = 0xa1b2c3d4
	magicNano  = 0xa1b23c4d
)

// LinkTypeEthernet is the only link type this repository produces.
const LinkTypeEthernet = 1

// Errors returned by the reader.
var (
	ErrBadMagic   = errors.New("pcapio: unrecognized magic number")
	ErrBadLink    = errors.New("pcapio: unsupported link type")
	ErrShortPkt   = errors.New("pcapio: truncated packet record")
	errSnapExceed = errors.New("pcapio: capture length exceeds snaplen")
)

// Writer emits a pcap stream. Create with NewWriter, then call WritePacket
// for each frame.
type Writer struct {
	w       io.Writer
	snaplen uint32
	nano    bool
	wrote   bool
}

// WriterOption customizes a Writer.
type WriterOption func(*Writer)

// WithNanosecondPrecision switches the writer to the nanosecond magic.
func WithNanosecondPrecision() WriterOption {
	return func(w *Writer) { w.nano = true }
}

// WithSnaplen sets the advertised snap length (default 262144).
func WithSnaplen(n uint32) WriterOption {
	return func(w *Writer) { w.snaplen = n }
}

// NewWriter writes the global header immediately.
func NewWriter(w io.Writer, opts ...WriterOption) (*Writer, error) {
	pw := &Writer{w: w, snaplen: 262144}
	for _, o := range opts {
		o(pw)
	}
	var hdr [24]byte
	magic := uint32(magicMicro)
	if pw.nano {
		magic = magicNano
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version 2.4
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	// thiszone, sigfigs: zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pw.snaplen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: writing global header: %w", err)
	}
	return pw, nil
}

// WritePacket appends one packet record.
func (w *Writer) WritePacket(info packet.CaptureInfo, data []byte) error {
	if uint32(len(data)) > w.snaplen {
		return errSnapExceed
	}
	var hdr [16]byte
	ts := info.Timestamp
	sec := uint32(ts.Unix())
	var frac uint32
	if w.nano {
		frac = uint32(ts.Nanosecond())
	} else {
		frac = uint32(ts.Nanosecond() / 1000)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], sec)
	binary.LittleEndian.PutUint32(hdr[4:8], frac)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	length := info.Length
	if length < len(data) {
		length = len(data)
	}
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(length))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcapio: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcapio: writing record body: %w", err)
	}
	w.wrote = true
	return nil
}

// Reader consumes a pcap stream.
type Reader struct {
	r        io.Reader
	order    binary.ByteOrder
	nano     bool
	snaplen  uint32
	linkType uint32
}

// NewReader parses the global header.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcapio: reading global header: %w", err)
	}
	pr := &Reader{r: r}
	le := binary.LittleEndian.Uint32(hdr[0:4])
	be := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case le == magicMicro:
		pr.order = binary.LittleEndian
	case le == magicNano:
		pr.order, pr.nano = binary.LittleEndian, true
	case be == magicMicro:
		pr.order = binary.BigEndian
	case be == magicNano:
		pr.order, pr.nano = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	pr.snaplen = pr.order.Uint32(hdr[16:20])
	pr.linkType = pr.order.Uint32(hdr[20:24])
	if pr.linkType != LinkTypeEthernet {
		return nil, ErrBadLink
	}
	return pr, nil
}

// Snaplen returns the stream's advertised snap length.
func (r *Reader) Snaplen() uint32 { return r.snaplen }

// ReadPacket returns the next record. It returns io.EOF cleanly at the end
// of the stream.
func (r *Reader) ReadPacket() (packet.CaptureInfo, []byte, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return packet.CaptureInfo{}, nil, io.EOF
		}
		return packet.CaptureInfo{}, nil, fmt.Errorf("pcapio: reading record header: %w", err)
	}
	sec := r.order.Uint32(hdr[0:4])
	frac := r.order.Uint32(hdr[4:8])
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	if capLen > r.snaplen {
		return packet.CaptureInfo{}, nil, ErrShortPkt
	}
	data, err := readBody(r.r, int(capLen))
	if err != nil {
		return packet.CaptureInfo{}, nil, ErrShortPkt
	}
	nanos := int64(frac)
	if !r.nano {
		nanos *= 1000
	}
	info := packet.CaptureInfo{
		Timestamp:     time.Unix(int64(sec), nanos).UTC(),
		CaptureLength: int(capLen),
		Length:        int(origLen),
	}
	return info, data, nil
}

// bodyChunk bounds how far ahead of the bytes actually read a record body's
// buffer may grow. capLen is attacker-controlled up to the file's own
// snaplen (up to 4 GiB), so the buffer grows with the bytes that arrive
// instead of being sized from the header.
const bodyChunk = 64 << 10

// readBody reads exactly n bytes. Bodies up to bodyChunk are read into one
// exact allocation; longer ones grow chunk by chunk, so a forged length
// costs at most the bytes present plus one chunk.
func readBody(r io.Reader, n int) ([]byte, error) {
	data := make([]byte, 0, min(n, bodyChunk))
	for len(data) < n {
		m := min(n-len(data), bodyChunk)
		data = slices.Grow(data, m)
		if _, err := io.ReadFull(r, data[len(data):len(data)+m]); err != nil {
			return nil, err
		}
		data = data[:len(data)+m]
	}
	return data, nil
}

// ReadAll decodes every remaining record into packets.
func (r *Reader) ReadAll() ([]*packet.Packet, error) {
	var pkts []*packet.Packet
	for {
		info, data, err := r.ReadPacket()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, packet.Decode(data, info))
	}
}
