package flows

// TransferArrival carries live arrival bookkeeping across an artifact swap:
// for every bucket of dst whose key the src table also interns and whose src
// state has recorded an arrival, the src position overwrites dst's. Buckets
// only dst knows keep the positions dst's compile-time snapshot seeded; an
// arrival src never recorded is likewise left on dst's seed (a src bucket
// with has == false still sits exactly on its own compile-time seed, so for
// an identically-compiled dst the transfer is a byte-level no-op on the
// encoded arrival state). Returns how many buckets were carried over.
//
// dstSt must belong to dst and srcSt to src; like all ArrivalState use, the
// caller owns the synchronization.
func TransferArrival(dst *CompiledRules, dstSt *ArrivalState, src *CompiledRules, srcSt *ArrivalState) int {
	n := 0
	for id, k := range dst.keys {
		sid, ok := src.lookup(k)
		if !ok || !srcSt.has[sid] {
			continue
		}
		dstSt.last[id] = srcSt.last[sid]
		dstSt.has[id] = true
		n++
	}
	return n
}
