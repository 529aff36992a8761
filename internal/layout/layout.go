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
	"math/rand"
)

// DefaultBlockVectors is the number of vectors per NVM block for 128 B
// vectors and 4 KB blocks.
const DefaultBlockVectors = 32

// Layout is an immutable placement of numVectors vectors into blocks of
// blockVectors vectors each.
type Layout struct {
	blockVectors int
	order        []uint32 // position -> vector ID
	posOf        []uint32 // vector ID -> position
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
	posOf := make([]uint32, n)
	seen := make([]bool, n)
	for pos, id := range order {
		if int(id) >= n {
			return nil, fmt.Errorf("layout: order references vector %d outside table of %d", id, n)
		}
		if seen[id] {
			return nil, fmt.Errorf("layout: vector %d appears twice in order", id)
		}
		seen[id] = true
		posOf[id] = uint32(pos)
	}
	return &Layout{
		blockVectors: blockVectors,
		order:        append([]uint32(nil), order...),
		posOf:        posOf,
	}, nil
}

// NumVectors returns the number of vectors placed.
func (l *Layout) NumVectors() int { return len(l.order) }

// SizeBytes returns the heap the layout holds: the placement order and its
// inverse, four bytes per vector each.
func (l *Layout) SizeBytes() int64 { return 4 * int64(len(l.order)+len(l.posOf)) }

// BlockVectors returns the number of vectors per block.
func (l *Layout) BlockVectors() int { return l.blockVectors }

// NumBlocks returns the number of blocks needed to store all vectors.
func (l *Layout) NumBlocks() int {
	return (len(l.order) + l.blockVectors - 1) / l.blockVectors
}

// BlockOf returns the block index holding vector id.
func (l *Layout) BlockOf(id uint32) int {
	return int(l.posOf[id]) / l.blockVectors
}

// SlotOf returns the slot of vector id within its block.
func (l *Layout) SlotOf(id uint32) int {
	return int(l.posOf[id]) % l.blockVectors
}

// PositionOf returns the global physical position of vector id.
func (l *Layout) PositionOf(id uint32) int { return int(l.posOf[id]) }

// VectorAt returns the vector stored at physical position pos.
func (l *Layout) VectorAt(pos int) uint32 { return l.order[pos] }

// BlockMembers appends the IDs stored in block b to dst and returns it. The
// last block may hold fewer than BlockVectors vectors.
func (l *Layout) BlockMembers(b int, dst []uint32) []uint32 {
	start := b * l.blockVectors
	end := start + l.blockVectors
	if end > len(l.order) {
		end = len(l.order)
	}
	if start >= end {
		return dst
	}
	return append(dst, l.order[start:end]...)
}

// Order returns a copy of the full placement permutation.
func (l *Layout) Order() []uint32 {
	return append([]uint32(nil), l.order...)
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
