package experiments

import (
	"os"
	"testing"
)

// TestColdStartBenchGates runs the cold-start harness at a small fleet size
// and checks every hard gate: allocation-free warm acquisition, N:1 arena
// dedup with positive byte savings, and byte-identical recovered state
// across the copied and zero-copy arms.
func TestColdStartBenchGates(t *testing.T) {
	res, err := ColdStartBench(3, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Gates(); err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		t.Logf("%d devices: copied %.2f ms, zero-copy %.2f ms, %.2fx, snapshot %d B (saved %d B)",
			p.Devices, p.Copied.RestartMs, p.ZeroCopy.RestartMs, p.Speedup, p.SnapshotBytes, p.DedupSavedBytes)
	}
}

func benchColdOpen(b *testing.B, zeroCopy bool) {
	b.Helper()
	dir, err := os.MkdirTemp("", "fiat-coldbench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	const devices = 256
	if err := coldStartPrime(dir, 7, devices); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, mgr, err := coldStartOpen(dir, coldStartBuild(7, devices, zeroCopy, nil))
		if err != nil {
			b.Fatal(err)
		}
		mgr.Abort()
	}
}

func BenchmarkColdOpenZeroCopy(b *testing.B) { benchColdOpen(b, true) }
func BenchmarkColdOpenCopied(b *testing.B)   { benchColdOpen(b, false) }
