//go:build linux

package artifact

import (
	"os"
	"syscall"
)

// MapFile loads path for zero-copy consumption. On Linux it memory-maps the
// file MAP_PRIVATE with read+write protection: views alias the mapping
// directly, and any in-place mutation (arrival-state updates on restored
// devices) lands in copy-on-write pages, never in the file. mapped reports
// whether the bytes came from mmap; on any mapping failure the os.ReadFile
// fallback is used instead.
//
// Mappings are intentionally never unmapped: a view constructed over the
// buffer may outlive every handle the caller tracks (a hot-swapped artifact
// is simply dropped, and the garbage collector cannot unmap what it
// frees), and a dangling alias would be far worse than the bounded
// one-mapping-per-restart leak.
// Deleting or renaming the file underneath a live mapping is safe on Linux
// — the pages stay valid until the process exits.
func MapFile(path string) (data []byte, mapped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, false, nil
	}
	if int64(int(size)) != size {
		return readAll(path)
	}
	b, merr := syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	if merr != nil {
		return readAll(path)
	}
	return b, true, nil
}

func readAll(path string) ([]byte, bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	return b, false, nil
}
