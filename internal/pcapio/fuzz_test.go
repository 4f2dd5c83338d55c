package pcapio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"fiat/internal/packet"
)

// forgedLen is the capture length and snaplen the forged seed claims: far
// more than the file holds, and far below the 4 GiB the format allows.
const forgedLen = 64 << 20

// seedStream writes a three-record capture with Writer.
func seedStream(opts ...WriterOption) []byte {
	var b packet.Builder
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts...)
	if err != nil {
		panic(err)
	}
	base := time.Date(2022, 6, 1, 12, 0, 0, 123456789, time.UTC)
	for i := 0; i < 3; i++ {
		raw := b.TCPPacket(packet.TCPSpec{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: netip.MustParseAddr("10.0.0.2"), DstIP: netip.MustParseAddr("34.5.6.7"),
			SrcPort: uint16(1000 + i), DstPort: 443, Flags: packet.TCPFlagACK,
			Payload: bytes.Repeat([]byte{byte(i)}, 3*i),
		})
		info := packet.CaptureInfo{Timestamp: base.Add(time.Duration(i) * time.Second), CaptureLength: len(raw), Length: len(raw) + i}
		if err := w.WritePacket(info, raw); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// toBigEndian rewrites a little-endian capture in the other byte order.
func toBigEndian(le []byte) []byte {
	be := append([]byte(nil), le...)
	swap32 := func(off int) { binary.BigEndian.PutUint32(be[off:], binary.LittleEndian.Uint32(le[off:])) }
	swap16 := func(off int) { binary.BigEndian.PutUint16(be[off:], binary.LittleEndian.Uint16(le[off:])) }
	swap32(0)
	swap16(4)
	swap16(6)
	for off := 8; off < 24; off += 4 {
		swap32(off)
	}
	for off := 24; off+16 <= len(le); {
		for f := 0; f < 16; f += 4 {
			swap32(off + f)
		}
		off += 16 + int(binary.LittleEndian.Uint32(le[off+8:]))
	}
	return be
}

// fuzzSeeds builds FuzzPcapReader's committed corpus: Writer output at both
// precisions, the same in big-endian byte order, truncations inside a
// record header and a record body, and a forged capture length.
func fuzzSeeds() map[string][]byte {
	micro := seedStream()
	forged := make([]byte, 40)
	binary.LittleEndian.PutUint32(forged[0:], magicMicro)
	binary.LittleEndian.PutUint16(forged[4:], 2)
	binary.LittleEndian.PutUint16(forged[6:], 4)
	binary.LittleEndian.PutUint32(forged[16:], forgedLen)
	binary.LittleEndian.PutUint32(forged[20:], LinkTypeEthernet)
	binary.LittleEndian.PutUint32(forged[32:], forgedLen)
	binary.LittleEndian.PutUint32(forged[36:], forgedLen)
	return map[string][]byte{
		"micro":           micro,
		"nano":            seedStream(WithNanosecondPrecision()),
		"big_endian":      toBigEndian(micro),
		"big_endian_nano": toBigEndian(seedStream(WithNanosecondPrecision())),
		"header_only":     micro[:24],
		"cut_rec_header":  micro[:24+10],
		"cut_rec_body":    micro[:len(micro)-3],
		"forged_caplen":   forged,
	}
}

// TestFuzzCorpusCommitted keeps FuzzPcapReader's seed corpus in step with
// fuzzSeeds. With FIAT_WRITE_FUZZ_CORPUS=1 it (re)writes the seed files;
// otherwise it fails if any committed seed is missing or differs.
func TestFuzzCorpusCommitted(t *testing.T) {
	write := os.Getenv("FIAT_WRITE_FUZZ_CORPUS") == "1"
	dir := filepath.Join("testdata", "fuzz", "FuzzPcapReader")
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, seed := range fuzzSeeds() {
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed))))
		path := filepath.Join(dir, name)
		if write {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("seed %s missing (FIAT_WRITE_FUZZ_CORPUS=1 writes it): %v", name, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("seed %s differs from fuzzSeeds (FIAT_WRITE_FUZZ_CORPUS=1 rewrites it)", name)
		}
	}
}

// totalAlloc reports the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestForgedCaptureLengthAllocatesLittle: a 40-byte file whose snaplen and
// only record both claim 64 MiB must fail with ErrShortPkt after allocating
// a small fraction of the claim, not a buffer of the claimed size.
func TestForgedCaptureLengthAllocatesLittle(t *testing.T) {
	data := fuzzSeeds()["forged_caplen"]
	before := totalAlloc()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPacket(); err != ErrShortPkt {
		t.Fatalf("err = %v, want ErrShortPkt", err)
	}
	if grew := totalAlloc() - before; grew >= 1<<20 {
		t.Fatalf("reading a forged %d-byte record allocated %d B", forgedLen, grew)
	}
}

// readStream reads every record of a capture. clean reports whether the
// stream parsed to a clean io.EOF.
func readStream(data []byte) (r *Reader, infos []packet.CaptureInfo, frames [][]byte, clean bool) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, nil, false
	}
	for {
		info, frame, err := r.ReadPacket()
		if err == io.EOF {
			return r, infos, frames, true
		}
		if err != nil {
			return r, infos, frames, false
		}
		infos = append(infos, info)
		frames = append(frames, frame)
	}
}

// FuzzPcapReader feeds arbitrary bytes to the reader, fiat-analyze's input
// parser. Properties: it never panics; it allocates in proportion to the
// bytes it is given, whatever lengths the headers claim; and a stream that
// reads cleanly re-writes with Writer (same precision and snaplen) and
// re-reads to the same records. Writer normalizes the original length up to
// the captured length and writes little-endian; the format cannot carry a
// timestamp past 2106, so those compare by frame and lengths only.
func FuzzPcapReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		before := totalAlloc()
		r, infos, frames, clean := readStream(data)
		if grew := totalAlloc() - before; grew > uint64(16*len(data))+1<<20 {
			t.Fatalf("reading %d bytes allocated %d B", len(data), grew)
		}
		if !clean {
			return
		}
		opts := []WriterOption{WithSnaplen(r.Snaplen())}
		if r.nano {
			opts = append(opts, WithNanosecondPrecision())
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frames {
			if err := w.WritePacket(infos[i], frames[i]); err != nil {
				t.Fatalf("record %d does not re-write: %v", i, err)
			}
		}
		_, infos2, frames2, clean := readStream(buf.Bytes())
		if !clean || len(frames2) != len(frames) {
			t.Fatalf("re-written stream reads %d records (clean %v), want %d", len(frames2), clean, len(frames))
		}
		for i, a := range infos {
			b := infos2[i]
			if !bytes.Equal(frames[i], frames2[i]) || a.CaptureLength != b.CaptureLength || max(a.Length, a.CaptureLength) != b.Length {
				t.Fatalf("record %d re-reads as %+v, want %+v", i, b, a)
			}
			if a.Timestamp.Unix() <= math.MaxUint32 && !a.Timestamp.Equal(b.Timestamp) {
				t.Fatalf("record %d timestamp re-reads as %v, want %v", i, b.Timestamp, a.Timestamp)
			}
		}
	})
}
