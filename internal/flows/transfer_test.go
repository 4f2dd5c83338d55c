package flows

import (
	"bytes"
	"net/netip"
	"testing"
	"time"
)

var transferRemote = netip.MustParseAddr("52.9.9.9")

// transferCompiled builds a frozen compiled table with one classic bucket per
// entry of sizes (all other key fields held constant), learning four arrivals
// per bucket at a 10-second period.
func transferCompiled(t *testing.T, sizes []int) *CompiledRules {
	t.Helper()
	rt := NewRuleTable(ModeClassic)
	base := time.Unix(1700000000, 0).UTC()
	for round := 0; round < 4; round++ {
		for i, size := range sizes {
			rt.Learn(Record{
				Time: base.Add(time.Duration(round)*10*time.Second + time.Duration(i)*time.Second),
				Size: size, Proto: "tcp", Dir: DirOutbound,
				RemoteIP: transferRemote, LocalPort: 40000, RemotePort: 443,
			})
		}
	}
	rt.Freeze()
	c := rt.Compile()
	if c == nil || len(c.keys) != len(sizes) {
		t.Fatalf("compiled %v keys from %d sizes", c, len(sizes))
	}
	return c
}

// transferID resolves the bucket id of the size-keyed test stream.
func transferID(t *testing.T, c *CompiledRules, size int) uint32 {
	t.Helper()
	id, ok := c.lookup(Key{Mode: ModeClassic, Dir: DirOutbound, Proto: "tcp", Size: size,
		Remote: transferRemote, LPort: 40000, RPort: 443})
	if !ok {
		t.Fatalf("size %d not interned", size)
	}
	return id
}

func TestTransferArrivalCarriesOverlap(t *testing.T) {
	src := transferCompiled(t, []int{100, 200, 300})
	dst := transferCompiled(t, []int{100, 200, 300})
	srcSt := src.NewArrivalState()
	dstSt := dst.NewArrivalState()
	i100, i200 := transferID(t, src, 100), transferID(t, src, 200)
	srcSt.last[i100], srcSt.has[i100] = 111111, true
	srcSt.last[i200], srcSt.has[i200] = 222222, true

	if n := TransferArrival(dst, dstSt, src, srcSt); n != 3 {
		// All three src buckets carry: 100 and 200 the live positions, 300
		// its compile-time seed (which also has a recorded arrival).
		t.Fatalf("carried %d buckets, want 3", n)
	}
	if dstSt.last[transferID(t, dst, 100)] != 111111 || !dstSt.has[transferID(t, dst, 100)] {
		t.Fatal("live position for size 100 not carried")
	}
	if dstSt.last[transferID(t, dst, 200)] != 222222 {
		t.Fatal("live position for size 200 not carried")
	}
	i300 := transferID(t, dst, 300)
	if dstSt.last[i300] != dst.initLast[i300] {
		t.Fatal("size 300 moved off its seed")
	}
}

// TestTransferArrivalNewStreamInCandidateOnly: a bucket only the candidate
// (dst) knows must keep the position its compile-time snapshot seeded.
func TestTransferArrivalNewStreamInCandidateOnly(t *testing.T) {
	src := transferCompiled(t, []int{100})
	dst := transferCompiled(t, []int{100, 999})
	srcSt := src.NewArrivalState()
	dstSt := dst.NewArrivalState()
	i100 := transferID(t, src, 100)
	srcSt.last[i100], srcSt.has[i100] = 424242, true

	if n := TransferArrival(dst, dstSt, src, srcSt); n != 1 {
		t.Fatalf("carried %d buckets, want 1", n)
	}
	if dstSt.last[transferID(t, dst, 100)] != 424242 {
		t.Fatal("shared stream not carried")
	}
	i999 := transferID(t, dst, 999)
	if dstSt.last[i999] != dst.initLast[i999] || dstSt.has[i999] != dst.initHas[i999] {
		t.Fatal("candidate-only stream moved off its seed")
	}
}

// TestTransferArrivalStreamDroppedByCandidate: src buckets the candidate no
// longer interns are skipped — no carry, no panic, src untouched.
func TestTransferArrivalStreamDroppedByCandidate(t *testing.T) {
	src := transferCompiled(t, []int{100, 200, 300})
	dst := transferCompiled(t, []int{200})
	srcSt := src.NewArrivalState()
	dstSt := dst.NewArrivalState()
	for _, size := range []int{100, 200, 300} {
		id := transferID(t, src, size)
		srcSt.last[id], srcSt.has[id] = int64(size)*1000, true
	}
	before := AppendArrival(nil, srcSt)

	if n := TransferArrival(dst, dstSt, src, srcSt); n != 1 {
		t.Fatalf("carried %d buckets, want 1", n)
	}
	if dstSt.last[transferID(t, dst, 200)] != 200000 {
		t.Fatal("surviving stream not carried")
	}
	if !bytes.Equal(AppendArrival(nil, srcSt), before) {
		t.Fatal("transfer mutated the incumbent state")
	}
}

// TestTransferArrivalEmptyIncumbent: an incumbent with no interned buckets at
// all (fresh device, empty bootstrap) and an incumbent whose state has no
// recorded arrivals both leave the candidate byte-identical.
func TestTransferArrivalEmptyIncumbent(t *testing.T) {
	empty := NewRuleTable(ModeClassic)
	empty.Freeze()
	src := empty.Compile()
	if src == nil || len(src.keys) != 0 {
		t.Fatal("empty table did not compile to zero keys")
	}
	dst := transferCompiled(t, []int{100, 200})
	dstSt := dst.NewArrivalState()
	before := AppendArrival(nil, dstSt)
	if n := TransferArrival(dst, dstSt, src, src.NewArrivalState()); n != 0 {
		t.Fatalf("carried %d buckets from an empty incumbent", n)
	}
	if !bytes.Equal(AppendArrival(nil, dstSt), before) {
		t.Fatal("empty transfer changed the candidate state")
	}

	// Same keys but a no-arrivals state: nothing to carry either.
	src2 := transferCompiled(t, []int{100, 200})
	blank := &ArrivalState{last: make([]int64, len(src2.keys)), has: make([]bool, len(src2.keys))}
	if n := TransferArrival(dst, dstSt, src2, blank); n != 0 {
		t.Fatalf("carried %d buckets from a no-arrival incumbent", n)
	}
	if !bytes.Equal(AppendArrival(nil, dstSt), before) {
		t.Fatal("no-arrival transfer changed the candidate state")
	}
}

// TestTransferArrivalIdenticalNoOp: transferring between identically-compiled
// tables whose incumbent sits on its compile-time seeds is a byte-level no-op
// on the encoded arrival state (the documented invariant).
func TestTransferArrivalIdenticalNoOp(t *testing.T) {
	src := transferCompiled(t, []int{100, 200, 300})
	dst := transferCompiled(t, []int{100, 200, 300})
	dstSt := dst.NewArrivalState()
	before := AppendArrival(nil, dstSt)
	TransferArrival(dst, dstSt, src, src.NewArrivalState())
	if !bytes.Equal(AppendArrival(nil, dstSt), before) {
		t.Fatal("seed-to-seed transfer changed the encoded arrival state")
	}
}
