package nvm

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestWriteBlocksBulkRoundTrip installs a contiguous range through
// WriteBlocks on both backends and verifies the blocks read back identically, that
// single-block writes interleave correctly, and that alignment errors are
// rejected.
func TestWriteBlocksBulkRoundTrip(t *testing.T) {
	const blocks = 16
	img := make([]byte, 10*BlockSize)
	for i := range img {
		img[i] = byte(i * 31)
	}

	newFile := func(t *testing.T) *Device {
		fs, err := CreateFileStore(filepath.Join(t.TempDir(), "blocks.bnd"), blocks, FileStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return NewDevice(DeviceConfig{Store: fs, Seed: 1})
	}
	backends := map[string]func(t *testing.T) *Device{
		"mem":  func(t *testing.T) *Device { return NewDevice(DeviceConfig{NumBlocks: blocks, Seed: 1}) },
		"file": newFile,
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			d := mk(t)
			defer d.Close()
			if err := d.WriteBlocks(3, img); err != nil {
				t.Fatal(err)
			}
			// A single-block write inside the range supersedes the bulk
			// image for that block only.
			over := make([]byte, BlockSize)
			for i := range over {
				over[i] = 0xAB
			}
			if err := d.WriteBlock(5, over); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, BlockSize)
			for b := 0; b < 10; b++ {
				if _, err := d.ReadBlock(3+b, buf); err != nil {
					t.Fatal(err)
				}
				want := img[b*BlockSize : (b+1)*BlockSize]
				if 3+b == 5 {
					want = over
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("%s: block %d does not match bulk image", name, 3+b)
				}
			}
			if err := d.WriteBlocks(0, make([]byte, BlockSize/2)); err == nil {
				t.Fatal("unaligned bulk write accepted")
			}
			if err := d.WriteBlocks(blocks-2, make([]byte, 4*BlockSize)); err == nil {
				t.Fatal("out-of-range bulk write accepted")
			}
		})
	}
}
