package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Recorder captures a bounded, sampled window of the live access stream so
// the adaptation engine can re-derive hit-rate curves, access counts and
// co-access hypergraphs from what the table is serving *right now* instead
// of from an offline training file.
//
// It is built for the serving path: one atomic add decides whether a query
// is sampled at all, and sampled queries go to one of several
// mutex-guarded ring stripes chosen round-robin, so concurrent lookups
// almost never contend on the same stripe lock. Memory is strictly bounded:
// each stripe is a fixed-size ring of queries whose ID slices are reused
// in place, so a recorder's footprint is set at construction and never
// grows, no matter how long it runs.
type Recorder struct {
	// seq counts every offered query; it drives both the 1-in-sampleEvery
	// sampling decision and the round-robin stripe choice, and stamps each
	// recorded query so Snapshot can restore approximate temporal order.
	seq         atomic.Uint64
	sampleEvery uint64
	stripes     []recorderStripe
}

// recorderStripe is one ring of recorded queries with its own lock. The
// padding keeps neighbouring stripe locks off the same cache line.
type recorderStripe struct {
	mu      sync.Mutex
	queries []recordedQuery
	next    int
	filled  int
	_       [32]byte
}

// recordedQuery is one sampled query: its global sequence number and the
// (copied) vector IDs it looked up.
type recordedQuery struct {
	seq uint64
	ids []uint32
}

// NewRecorder creates a recorder that keeps at most totalQueries recent
// queries, sampling one in sampleEvery offered queries (1 records
// everything), striped across `stripes` independently locked rings.
// totalQueries is clamped to at least one query per stripe.
func NewRecorder(totalQueries, stripes, sampleEvery int) *Recorder {
	if stripes < 1 {
		stripes = 1
	}
	if totalQueries < stripes {
		totalQueries = stripes
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	r := &Recorder{
		sampleEvery: uint64(sampleEvery),
		stripes:     make([]recorderStripe, stripes),
	}
	base, rem := totalQueries/stripes, totalQueries%stripes
	for i := range r.stripes {
		n := base
		if i < rem {
			n++
		}
		r.stripes[i].queries = make([]recordedQuery, n)
	}
	return r
}

// Record offers one query (the set of IDs a single operation looked up) to
// the recorder. The IDs are copied; the caller's slice is not retained.
// Unsampled queries cost a single atomic add.
func (r *Recorder) Record(ids []uint32) {
	if len(ids) == 0 {
		return
	}
	s := r.seq.Add(1)
	if s%r.sampleEvery != 0 {
		return
	}
	st := &r.stripes[(s/r.sampleEvery)%uint64(len(r.stripes))]
	st.mu.Lock()
	q := &st.queries[st.next]
	q.seq = s
	q.ids = append(q.ids[:0], ids...)
	st.next++
	if st.next == len(st.queries) {
		st.next = 0
	}
	if st.filled < len(st.queries) {
		st.filled++
	}
	st.mu.Unlock()
}

// Len returns the number of queries currently held (at most the configured
// capacity).
func (r *Recorder) Len() int {
	n := 0
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		n += st.filled
		st.mu.Unlock()
	}
	return n
}

// SizeBytes returns the heap the recorder holds: the ring slots plus the ID
// buffers they keep (buffers survive Reset, so capacities are counted).
func (r *Recorder) SizeBytes() int64 {
	var n int64
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		n += int64(len(st.queries)) * 32 // seq + slice header
		for _, q := range st.queries {
			n += int64(cap(q.ids)) * 4
		}
		st.mu.Unlock()
	}
	return n
}

// Offered returns the total number of queries offered to Record since the
// recorder was created or last Reset, sampled or not.
func (r *Recorder) Offered() uint64 { return r.seq.Load() }

// Snapshot copies the recorded window out as a Trace over a table of
// numVectors vectors, with queries in recording order (by sequence number),
// so stack-distance analysis sees the stream in approximately the order it
// was served. IDs outside the table are dropped.
func (r *Recorder) Snapshot(tableName string, numVectors int) *Trace {
	var all []recordedQuery
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		for j := 0; j < st.filled; j++ {
			q := st.queries[j]
			ids := make([]uint32, 0, len(q.ids))
			for _, id := range q.ids {
				if int(id) < numVectors {
					ids = append(ids, id)
				}
			}
			if len(ids) > 0 {
				all = append(all, recordedQuery{seq: q.seq, ids: ids})
			}
		}
		st.mu.Unlock()
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	tr := &Trace{TableName: tableName, NumVectors: numVectors, Queries: make([]Query, len(all))}
	for i, q := range all {
		tr.Queries[i] = q.ids
	}
	return tr
}

// Reset drops every recorded query and restarts the offered-query counter.
// Ring capacity (and the reused ID buffers) are kept.
func (r *Recorder) Reset() {
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		st.next = 0
		st.filled = 0
		st.mu.Unlock()
	}
	r.seq.Store(0)
}
