// Package layout maps embedding vectors to physical NVM block locations.
//
// A Layout is a permutation of a table's vector IDs chopped into fixed-size
// blocks (32 vectors of 128 B = one 4 KB NVM block in the paper's
// configuration). The partitioners (K-means, SHP) produce orderings; the
// cache simulator and the Bandana store consume the resulting
// vector→(block, slot) mapping.
package layout

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// DefaultBlockVectors is the number of vectors per NVM block for 128 B
// vectors and 4 KB blocks.
const DefaultBlockVectors = 32

// Layout is an immutable placement of numVectors vectors into blocks of
// blockVectors vectors each.
//
// Both directions of the permutation are packed at width = max(1,
// ⌈log₂ numVectors⌉) bits per entry into 64-bit words, so a table of up to
// 2^16 vectors holds at most 4 B per vector here instead of 8; an entry may
// straddle two words. A lookup is a shift and a mask, one more load when the
// entry straddles.
type Layout struct {
	blockVectors int
	n            int
	width        uint
	mask         uint64
	order        []uint64 // packed: position -> vector ID
	posOf        []uint64 // packed: vector ID -> position
}

// entryWidth is the bits one entry of an n-entry permutation takes.
func entryWidth(n int) uint {
	if n <= 1 {
		return 1
	}
	return uint(bits.Len(uint(n - 1)))
}

// get returns entry i of words packed at l.width bits.
func (l *Layout) get(words []uint64, i int) uint32 {
	bit := uint(i) * l.width
	q, r := bit/64, bit%64
	v := words[q] >> r
	if r+l.width > 64 {
		v |= words[q+1] << (64 - r)
	}
	return uint32(v & l.mask)
}

// put sets entry i of zeroed words packed at l.width bits to v.
func (l *Layout) put(words []uint64, i int, v uint32) {
	bit := uint(i) * l.width
	q, r := bit/64, bit%64
	words[q] |= uint64(v) << r
	if r+l.width > 64 {
		words[q+1] |= uint64(v) >> (64 - r)
	}
}

// Identity returns the layout that stores vectors in ID order.
func Identity(numVectors, blockVectors int) *Layout {
	order := make([]uint32, numVectors)
	for i := range order {
		order[i] = uint32(i)
	}
	l, err := FromOrder(order, blockVectors)
	if err != nil {
		panic(err) // identity order is always valid
	}
	return l
}

// Random returns a layout with a uniformly random placement. It serves as a
// worst-case/no-locality baseline in the experiments.
func Random(numVectors, blockVectors int, seed int64) *Layout {
	rng := rand.New(rand.NewSource(seed))
	order := make([]uint32, numVectors)
	for i, p := range rng.Perm(numVectors) {
		order[i] = uint32(p)
	}
	l, err := FromOrder(order, blockVectors)
	if err != nil {
		panic(err)
	}
	return l
}

// FromOrder builds a layout from a permutation of vector IDs (position i of
// the slice holds the ID stored at physical position i). It validates that
// order is a true permutation.
func FromOrder(order []uint32, blockVectors int) (*Layout, error) {
	if blockVectors <= 0 {
		blockVectors = DefaultBlockVectors
	}
	n := len(order)
	w := entryWidth(n)
	words := (n*int(w) + 63) / 64
	l := &Layout{
		blockVectors: blockVectors,
		n:            n,
		width:        w,
		mask:         1<<w - 1,
		order:        make([]uint64, words),
		posOf:        make([]uint64, words),
	}
	seen := make([]uint64, (n+63)/64)
	for pos, id := range order {
		if int(id) >= n {
			return nil, fmt.Errorf("layout: order references vector %d outside table of %d", id, n)
		}
		if seen[id/64]&(1<<(id%64)) != 0 {
			return nil, fmt.Errorf("layout: vector %d appears twice in order", id)
		}
		seen[id/64] |= 1 << (id % 64)
		l.put(l.order, pos, id)
		l.put(l.posOf, int(id), uint32(pos))
	}
	return l, nil
}

// NumVectors returns the number of vectors placed.
func (l *Layout) NumVectors() int { return l.n }

// SizeBytes returns the heap the layout holds: the packed placement order and
// its inverse, width bits per vector each.
func (l *Layout) SizeBytes() int64 { return 8 * int64(len(l.order)+len(l.posOf)) }

// BlockVectors returns the number of vectors per block.
func (l *Layout) BlockVectors() int { return l.blockVectors }

// NumBlocks returns the number of blocks needed to store all vectors.
func (l *Layout) NumBlocks() int {
	return (l.n + l.blockVectors - 1) / l.blockVectors
}

// BlockOf returns the block index holding vector id.
func (l *Layout) BlockOf(id uint32) int {
	return l.PositionOf(id) / l.blockVectors
}

// SlotOf returns the slot of vector id within its block.
func (l *Layout) SlotOf(id uint32) int {
	return l.PositionOf(id) % l.blockVectors
}

// PositionOf returns the global physical position of vector id. Like an
// index into a plain slice it panics on an id outside the table, which the
// packing would otherwise read from a neighbour's bits.
func (l *Layout) PositionOf(id uint32) int {
	if int(id) >= l.n {
		panic("layout: vector id outside the table")
	}
	return int(l.get(l.posOf, int(id)))
}

// VectorAt returns the vector stored at physical position pos; it panics on
// a position outside the table.
func (l *Layout) VectorAt(pos int) uint32 {
	if uint(pos) >= uint(l.n) {
		panic("layout: position outside the table")
	}
	return l.get(l.order, pos)
}

// BlockMembers appends the IDs stored in block b to dst and returns it. The
// last block may hold fewer than BlockVectors vectors.
func (l *Layout) BlockMembers(b int, dst []uint32) []uint32 {
	start := b * l.blockVectors
	end := min(start+l.blockVectors, l.n)
	if start >= end {
		return dst
	}
	n := len(dst)
	dst = slices.Grow(dst, end-start)[:n+end-start]
	for i := range dst[n:] {
		dst[n+i] = l.get(l.order, start+i)
	}
	return dst
}

// Order returns the full placement permutation, unpacked.
func (l *Layout) Order() []uint32 {
	order := make([]uint32, l.n)
	for p := range order {
		order[p] = l.get(l.order, p)
	}
	return order
}

// Fanout returns the number of distinct blocks a query's lookups touch under
// this layout. The average fanout over a trace is the objective SHP
// minimises (Equation 3 in the paper).
func (l *Layout) Fanout(query []uint32) int {
	if len(query) == 0 {
		return 0
	}
	seen := make(map[int]struct{}, len(query))
	for _, id := range query {
		seen[l.BlockOf(id)] = struct{}{}
	}
	return len(seen)
}

// AverageFanout computes the mean fanout over a set of queries.
func (l *Layout) AverageFanout(queries [][]uint32) float64 {
	if len(queries) == 0 {
		return 0
	}
	var total int64
	for _, q := range queries {
		total += int64(l.Fanout(q))
	}
	return float64(total) / float64(len(queries))
}
