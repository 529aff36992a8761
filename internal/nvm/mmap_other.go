//go:build !(linux || darwin || freebsd)

package nvm

import "os"

// mapRegion: other platforms do not map the data region, and the file store
// reads it with pread.
func mapRegion(f *os.File, off, n int64) (mapping, region []byte) { return nil, nil }

func unmapRegion(mapping []byte) error { return nil }
