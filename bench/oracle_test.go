package main

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func testDataset() *Dataset {
	ds := &Dataset{Names: []string{"t"}, NumVectors: []int{4}, Dim: 8, VecBytes: 16}
	raw := make([]byte, 4*16)
	for i := range raw {
		raw[i] = byte(i*7 + 1)
	}
	ds.Original = [][]byte{raw}
	return ds
}

func TestHalfToFloat32(t *testing.T) {
	for _, c := range []struct {
		h    uint16
		want float32
	}{
		{0x0000, 0}, {0x3c00, 1}, {0xc000, -2}, {0x7bff, 65504}, {0x3555, 0.33325195},
		{0x0001, float32(math.Ldexp(1, -24))}, {0x03ff, float32(1023 * math.Ldexp(1, -24))},
		{0x7c00, float32(math.Inf(1))}, {0xfc00, float32(math.Inf(-1))},
	} {
		if got := halfToFloat32(c.h); got != c.want {
			t.Errorf("half %#04x = %v, want %v", c.h, got, c.want)
		}
	}
	if got := halfToFloat32(0x8000); got != 0 || !math.Signbit(float64(got)) {
		t.Errorf("half 0x8000 = %v, want -0", got)
	}
	if got := halfToFloat32(0x7e00); !math.IsNaN(float64(got)) {
		t.Errorf("half 0x7e00 = %v, want NaN", got)
	}
}

// The correctness gate: a single flipped bit in what the store returns (or,
// equivalently, in the oracle's copy) must be reported.
func TestOracleCatchesCorruptedVector(t *testing.T) {
	ds := testDataset()
	o := newOracle(ds, false)
	ids := []uint32{2, 0}
	good := lookupResult{Raw: [][]byte{o.original(0, 2), o.original(0, 0)}}
	if err := o.check(0, ids, good, nil); err != nil {
		t.Fatalf("right vectors rejected: %v", err)
	}
	ds.Original[0][2*16+5] ^= 0x10 // corrupt the oracle's entry for id 2
	good2 := lookupResult{Raw: [][]byte{append([]byte(nil), good.Raw[0]...), good.Raw[1]}}
	good2.Raw[0][5] ^= 0x10 // what the store would (rightly) still return
	if err := o.check(0, ids, good2, nil); err == nil || !strings.Contains(err.Error(), "id 2") {
		t.Fatalf("corrupted oracle entry not caught: %v", err)
	}
	if err := o.check(0, ids, lookupResult{Raw: good.Raw[:1]}, nil); err == nil {
		t.Fatal("short result not caught")
	}
}

func TestOracleChecksDecodedFloats(t *testing.T) {
	ds := testDataset()
	binary.LittleEndian.PutUint16(ds.Original[0][0:], 0x3c00) // 1.0
	binary.LittleEndian.PutUint16(ds.Original[0][2:], 0xc000) // -2.0
	o := newOracle(ds, false)
	want := make([]float32, 8)
	for k := range want {
		want[k] = halfToFloat32(binary.LittleEndian.Uint16(ds.Original[0][2*k:]))
	}
	if want[0] != 1 || want[1] != -2 {
		t.Fatalf("decoded %v", want[:2])
	}
	if err := o.check(0, []uint32{0}, lookupResult{F32: [][]float32{want}}, nil); err != nil {
		t.Fatalf("right floats rejected: %v", err)
	}
	bad := append([]float32(nil), want...)
	bad[7] = math.Nextafter32(bad[7], 0)
	if err := o.check(0, []uint32{0}, lookupResult{F32: [][]float32{bad}}, nil); err == nil {
		t.Fatal("one-ulp error not caught")
	}
}

// On a workload with updates a lookup may see any version from the highest
// acknowledged before it was sent to the highest sent, and nothing else.
func TestOracleVersionWindow(t *testing.T) {
	o := newOracle(testDataset(), true)
	ids := []uint32{1}
	see := func(v uint32, floor uint32) error {
		raw := o.original(0, 1)
		if v > 0 {
			raw = o.versionedPayload(0, 1, v)
		}
		return o.check(0, ids, lookupResult{Raw: [][]byte{raw}}, []uint32{floor})
	}
	if err := see(0, 0); err != nil {
		t.Fatalf("original before any update rejected: %v", err)
	}
	if err := see(1, 0); err == nil {
		t.Fatal("version 1 accepted before it was sent")
	}
	send := func([]byte) error { return nil }
	for i := 0; i < 3; i++ {
		if err := o.update(0, 1, send); err != nil {
			t.Fatal(err)
		}
	}
	floor := o.floors(0, ids)
	if floor[0] != 3 {
		t.Fatalf("floor %d after three acknowledged updates, want 3", floor[0])
	}
	if err := see(3, 3); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	if err := see(2, 3); err == nil {
		t.Fatal("stale version 2 accepted after version 3 was acknowledged")
	}
	if err := see(0, 3); err == nil {
		t.Fatal("original accepted after an update was acknowledged")
	}
	if err := see(2, 1); err != nil {
		t.Fatalf("version inside the window rejected: %v", err)
	}
	if err := see(4, 3); err == nil {
		t.Fatal("version 4 accepted, never sent")
	}
	// A payload for another vector, or with a damaged tail, is wrong at any
	// version.
	other := o.versionedPayload(0, 2, 3)
	if err := o.check(0, ids, lookupResult{Raw: [][]byte{other}}, []uint32{0}); err == nil {
		t.Fatal("payload of another vector accepted")
	}
	n := 0
	o.updated(func(tbl int, id uint32, want []byte) {
		n++
		if tbl != 0 || id != 1 || binary.LittleEndian.Uint32(want[4:]) != 3 {
			t.Errorf("updated() visited table %d id %d version %d", tbl, id, binary.LittleEndian.Uint32(want[4:]))
		}
	})
	if n != 1 {
		t.Errorf("updated() visited %d vectors, want 1", n)
	}
}
