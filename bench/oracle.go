package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// oracle decides whether a returned vector is right. It owns a private copy
// of every table's bytes and, on workloads with updates, the version history
// of every updated vector. It shares no code with the product: the fp16
// decode below is its own.
type oracle struct {
	ds *Dataset
	// versioned workloads overwrite vectors with payloads that carry
	// (id, version); sent and acked are the highest version sent and the
	// highest acknowledged, per table and vector.
	versioned bool
	sent      [][]atomic.Uint32
	acked     [][]atomic.Uint32
	// idLocks serialise updates of one vector, so versions reach the server
	// in order and "highest acknowledged" is what a reopen must show.
	idLocks [256]sync.Mutex

	halfTable [1 << 16]float32
}

func newOracle(ds *Dataset, versioned bool) *oracle {
	o := &oracle{ds: ds, versioned: versioned}
	for h := range o.halfTable {
		o.halfTable[h] = halfToFloat32(uint16(h))
	}
	if versioned {
		for _, n := range ds.NumVectors {
			o.sent = append(o.sent, make([]atomic.Uint32, n))
			o.acked = append(o.acked, make([]atomic.Uint32, n))
		}
	}
	return o
}

// halfToFloat32 converts one IEEE 754 binary16 value.
func halfToFloat32(h uint16) float32 {
	sign := uint32(h>>15) << 31
	exp := uint32(h>>10) & 0x1f
	frac := uint32(h) & 0x3ff
	switch exp {
	case 0: // zero or subnormal: frac x 2^-24
		v := float32(frac) * float32(math.Ldexp(1, -24))
		if sign != 0 {
			v = -v
		}
		return v
	case 0x1f: // infinity or NaN
		return math.Float32frombits(sign | 0x7f800000 | frac<<13)
	}
	return math.Float32frombits(sign | (exp+112)<<23 | frac<<13)
}

// original is vector id of table tbl as generated.
func (o *oracle) original(tbl int, id uint32) []byte {
	vb := o.ds.VecBytes
	return o.ds.Original[tbl][int(id)*vb : (int(id)+1)*vb]
}

// versionedPayload is what update number version of (tbl, id) writes: the
// original vector with its first eight bytes replaced by id and version.
func (o *oracle) versionedPayload(tbl int, id, version uint32) []byte {
	p := append([]byte(nil), o.original(tbl, id)...)
	binary.LittleEndian.PutUint32(p[0:], id)
	binary.LittleEndian.PutUint32(p[4:], version)
	return p
}

// floors returns, for each id, the highest version acknowledged so far. Taken
// before a lookup is sent, it is the oldest version that lookup may see.
func (o *oracle) floors(tbl int, ids []uint32) []uint32 {
	if !o.versioned {
		return nil
	}
	lo := make([]uint32, len(ids))
	for i, id := range ids {
		lo[i] = o.acked[tbl][id].Load()
	}
	return lo
}

// check verifies one lookup's result against the oracle. floors is what
// floors returned before the lookup was sent (nil on read-only workloads).
func (o *oracle) check(tbl int, ids []uint32, res lookupResult, floors []uint32) error {
	if res.len() != len(ids) {
		return fmt.Errorf("table %d: asked %d vectors, got %d", tbl, len(ids), res.len())
	}
	for i, id := range ids {
		var err error
		if res.F32 != nil {
			err = o.checkF32(tbl, id, res.F32[i])
		} else {
			var lo uint32
			if floors != nil {
				lo = floors[i]
			}
			err = o.checkRaw(tbl, id, res.Raw[i], lo)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (o *oracle) checkRaw(tbl int, id uint32, got []byte, lo uint32) error {
	want := o.original(tbl, id)
	if len(got) != len(want) {
		return fmt.Errorf("table %d id %d: %d bytes, want %d", tbl, id, len(got), len(want))
	}
	if !o.versioned {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("table %d id %d: wrong vector", tbl, id)
		}
		return nil
	}
	hi := o.sent[tbl][id].Load()
	if bytes.Equal(got, want) {
		if lo != 0 {
			return fmt.Errorf("table %d id %d: original vector returned after update %d was acknowledged", tbl, id, lo)
		}
		return nil
	}
	gotID, v := binary.LittleEndian.Uint32(got[0:]), binary.LittleEndian.Uint32(got[4:])
	if gotID != id || !bytes.Equal(got[8:], want[8:]) {
		return fmt.Errorf("table %d id %d: wrong vector", tbl, id)
	}
	if v < lo || v > hi {
		return fmt.Errorf("table %d id %d: version %d outside [%d acknowledged, %d sent]", tbl, id, v, lo, hi)
	}
	return nil
}

func (o *oracle) checkF32(tbl int, id uint32, got []float32) error {
	want := o.original(tbl, id)
	if len(got) != len(want)/2 {
		return fmt.Errorf("table %d id %d: %d elements, want %d", tbl, id, len(got), len(want)/2)
	}
	for k, g := range got {
		w := o.halfTable[binary.LittleEndian.Uint16(want[2*k:])]
		if math.Float32bits(g) != math.Float32bits(w) {
			return fmt.Errorf("table %d id %d element %d: %v, want %v", tbl, id, k, g, w)
		}
	}
	return nil
}

// update sends the next version of (tbl, id) through send and records the
// acknowledgement.
func (o *oracle) update(tbl int, id uint32, send func(raw []byte) error) error {
	mu := &o.idLocks[(uint32(tbl)*31+id)%uint32(len(o.idLocks))]
	mu.Lock()
	defer mu.Unlock()
	v := o.sent[tbl][id].Add(1)
	if err := send(o.versionedPayload(tbl, id, v)); err != nil {
		return err
	}
	o.acked[tbl][id].Store(v)
	return nil
}

// updated lists every vector with an acknowledged update and the payload a
// restarted store must return for it.
func (o *oracle) updated(visit func(tbl int, id uint32, want []byte)) {
	for tbl := range o.acked {
		for id := range o.acked[tbl] {
			if v := o.acked[tbl][id].Load(); v > 0 {
				visit(tbl, uint32(id), o.versionedPayload(tbl, uint32(id), v))
			}
		}
	}
}
