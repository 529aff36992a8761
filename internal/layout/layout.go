// Package layout maps embedding vectors to physical NVM block locations.
//
// A Layout is a permutation of a table's vector IDs chopped into fixed-size
// blocks (32 vectors of 128 B = one 4 KB NVM block in the paper's
// configuration). The partitioners (K-means, SHP) produce orderings; the
// cache simulator and the Bandana store consume the resulting
// vector→(block, slot) mapping.
//
// Training places the ids it never saw after the ones it did, in ascending
// id order. A layout keeps that trailing ascending run of its order, the
// untrained tail, as a bitset over ids with a rank per 64 ids, and stores
// the order and its inverse packed only for the positions before it (the
// head): 1.5 bits per vector instead of two entries of ⌈log₂ n⌉ bits each
// for every tail vector.
package layout

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
)

// DefaultBlockVectors is the number of vectors per NVM block for 128 B
// vectors and 4 KB blocks.
const DefaultBlockVectors = 32

// Layout is an immutable placement of numVectors vectors into blocks of
// blockVectors vectors each.
//
// Positions [0, head) are the head: order holds their vector IDs packed at
// ⌈log₂ n⌉ bits, and posOf the position of each head vector, indexed by its
// rank among the head's IDs and packed at ⌈log₂ head⌉ bits (both at least
// one bit; an entry may straddle two words). Positions [head, n) are the
// tail: its IDs ascend, so tail holds them as a bitset and ranks[w] counts
// those below ID 64w. The tail ID of rank r sits at position head + r, and a
// head ID's rank among the head is its ID less its tail rank. Without a tail
// (when implying it would not save bytes) head is n, tail and ranks are nil,
// and posOf is indexed by ID.
//
// PositionOf is one rank-directory load and a popcount, then a packed load
// for a head ID; VectorAt of a tail position is a select (a binary search of
// the directory, then a walk of one word's bits), and a Cursor reads
// ascending positions with one select and a walk of the set bits.
type Layout struct {
	blockVectors int
	n            int
	head         int
	orderWidth   uint
	posWidth     uint
	order        []uint64 // packed: head position -> vector ID
	posOf        []uint64 // packed: head rank of a head ID -> position
	tail         []uint64 // bit per vector ID, set for the tail's
	ranks        []uint32 // tail IDs below 64w, per word w of tail
}

// entryWidth is the bits one entry of an n-entry permutation takes.
func entryWidth(n int) uint {
	if n <= 1 {
		return 1
	}
	return uint(bits.Len(uint(n - 1)))
}

// packedWords is the words k entries packed at w bits take.
func packedWords(k int, w uint) int { return (k*int(w) + 63) / 64 }

// plainBytes is the heap of an n-vector layout that implies no tail: the
// order and its inverse, n entries each.
func plainBytes(n int) int64 { return 16 * int64(packedWords(n, entryWidth(n))) }

// impliedBytes is the heap of an n-vector layout whose first head positions
// are stored and whose tail is implied: head entries of the order and of
// the inverse, a bit per ID and a uint32 rank per 64 IDs.
func impliedBytes(n, head int) int64 {
	words := int64(n+63) / 64
	return 8*int64(packedWords(head, entryWidth(n))+packedWords(head, entryWidth(head))) + 12*words
}

// get returns entry i of words packed at w bits.
func get(words []uint64, i int, w uint) uint32 {
	bit := uint(i) * w
	q, r := bit/64, bit%64
	v := words[q] >> r
	if r+w > 64 {
		v |= words[q+1] << (64 - r)
	}
	return uint32(v & (1<<w - 1))
}

// put sets entry i of zeroed words packed at w bits to v.
func put(words []uint64, i int, w uint, v uint32) {
	bit := uint(i) * w
	q, r := bit/64, bit%64
	words[q] |= uint64(v) << r
	if r+w > 64 {
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
// order is a true permutation. The order's trailing ascending run is
// implied rather than stored when that takes fewer bytes.
func FromOrder(order []uint32, blockVectors int) (*Layout, error) {
	if blockVectors <= 0 {
		blockVectors = DefaultBlockVectors
	}
	n := len(order)
	seen := make([]uint64, (n+63)/64)
	for _, id := range order {
		if int(id) >= n {
			return nil, fmt.Errorf("layout: order references vector %d outside table of %d", id, n)
		}
		if seen[id/64]&(1<<(id%64)) != 0 {
			return nil, fmt.Errorf("layout: vector %d appears twice in order", id)
		}
		seen[id/64] |= 1 << (id % 64)
	}
	head := max(n-1, 0)
	for head > 0 && order[head-1] < order[head] {
		head--
	}
	l := &Layout{blockVectors: blockVectors, n: n, head: n, orderWidth: entryWidth(n)}
	if impliedBytes(n, head) < plainBytes(n) {
		// seen is every ID; clearing the head's leaves the tail's.
		l.head, l.tail, l.ranks = head, seen, make([]uint32, len(seen))
		for _, id := range order[:head] {
			l.tail[id/64] &^= 1 << (id % 64)
		}
		r := 0
		for w, word := range l.tail {
			l.ranks[w] = uint32(r)
			r += bits.OnesCount64(word)
		}
	}
	l.posWidth = entryWidth(l.head)
	l.order = make([]uint64, packedWords(l.head, l.orderWidth))
	l.posOf = make([]uint64, packedWords(l.head, l.posWidth))
	for pos, id := range order[:l.head] {
		put(l.order, pos, l.orderWidth, id)
		if l.tail != nil {
			r, _ := l.tailRank(id)
			id -= uint32(r)
		}
		put(l.posOf, int(id), l.posWidth, uint32(pos))
	}
	return l, nil
}

// tailRank returns how many tail IDs are below id, and whether id is one
// of them.
func (l *Layout) tailRank(id uint32) (int, bool) {
	w, bit := l.tail[id/64], uint64(1)<<(id%64)
	return int(l.ranks[id/64]) + bits.OnesCount64(w&(bit-1)), w&bit != 0
}

// NumVectors returns the number of vectors placed.
func (l *Layout) NumVectors() int { return l.n }

// SizeBytes returns the heap the layout holds: the head's packed order and
// inverse, and the tail's bitset and rank directory.
func (l *Layout) SizeBytes() int64 {
	return 8*int64(len(l.order)+len(l.posOf)+len(l.tail)) + 4*int64(len(l.ranks))
}

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
	if l.tail != nil {
		r, inTail := l.tailRank(id)
		if inTail {
			return l.head + r
		}
		id -= uint32(r)
	}
	return int(get(l.posOf, int(id), l.posWidth))
}

// VectorAt returns the vector stored at physical position pos; it panics on
// a position outside the table. A tail position costs a select; read
// ascending positions with a Cursor.
func (l *Layout) VectorAt(pos int) uint32 {
	c := l.Cursor()
	return c.At(pos)
}

// A Cursor reads the vectors at a layout's positions. Read in ascending
// order, a run of tail positions costs one select and then a walk of the
// set bits; a position below the last one read selects again.
type Cursor struct {
	l    *Layout
	w    int    // the tail word the walk is in; -1 before the first tail read
	rank int    // the tail rank of word's lowest set bit
	word uint64 // tail[w] without its bits below rank
}

// Cursor returns a cursor over l.
func (l *Layout) Cursor() Cursor { return Cursor{l: l, w: -1} }

// At returns the vector stored at physical position pos; it panics on a
// position outside the table.
func (c *Cursor) At(pos int) uint32 {
	l := c.l
	if uint(pos) >= uint(l.n) {
		panic("layout: position outside the table")
	}
	if pos < l.head {
		return get(l.order, pos, l.orderWidth)
	}
	r := pos - l.head
	if c.w < 0 || r < c.rank {
		// Select: the last word with fewer tail IDs below it than r + 1.
		c.w = sort.Search(len(l.ranks), func(w int) bool { return int(l.ranks[w]) > r }) - 1
		c.rank, c.word = int(l.ranks[c.w]), l.tail[c.w]
	}
	for c.w+1 < len(l.ranks) && int(l.ranks[c.w+1]) <= r {
		c.w++
		c.rank, c.word = int(l.ranks[c.w]), l.tail[c.w]
	}
	for ; c.rank < r; c.rank++ {
		c.word &= c.word - 1
	}
	return uint32(c.w*64 + bits.TrailingZeros64(c.word))
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
	c := l.Cursor()
	for i := range dst[n:] {
		dst[n+i] = c.At(start + i)
	}
	return dst
}

// Order returns the full placement permutation, unpacked.
func (l *Layout) Order() []uint32 {
	order := make([]uint32, l.n)
	c := l.Cursor()
	for p := range order {
		order[p] = c.At(p)
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
