//go:build linux || darwin || freebsd

package nvm

import (
	"os"
	"syscall"
)

// mapRegion maps n bytes of f at offset off read-only and MAP_SHARED, so a
// pwrite through the file is visible in the mapping as soon as it returns
// (the page cache is the one copy of the file). The mapping starts at the
// page boundary at or below off: mapping is what to hand to unmapRegion,
// region its n bytes at off. Both are nil when f cannot be mapped.
func mapRegion(f *os.File, off, n int64) (mapping, region []byte) {
	base := off &^ int64(os.Getpagesize()-1)
	length := off - base + n
	if int64(int(length)) != length {
		return nil, nil
	}
	m, err := syscall.Mmap(int(f.Fd()), base, int(length), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil
	}
	return m, m[off-base:]
}

func unmapRegion(mapping []byte) error { return syscall.Munmap(mapping) }
