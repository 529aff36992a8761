package core

import (
	"fmt"
	"sync/atomic"

	"bandana/internal/fp16"
	"bandana/internal/lru"
	"bandana/internal/vcache"
)

// Cache engine names for Config.CacheEngine.
const (
	// CacheEngineLRU is the classic engine: lru.Sharded with one heap
	//-allocated entry per vector holding the decoded []float32 (plus a
	// lazily built fp16 copy for the raw path). Float hits return a shared
	// slice with zero allocation; the GC scans every cached entry.
	CacheEngineLRU = "lru"
	// CacheEngineArena is the pointer-free engine (internal/vcache): fp16
	// payloads in slab arenas with packed recency metadata — ~2.5x less heap
	// per vector and nothing for the GC to scan, at the cost of one decode
	// allocation per float hit. Raw (wire-protocol) hits stay allocation-free.
	// The default.
	CacheEngineArena = "vcache"
)

// normalizeCacheEngine resolves a Config.CacheEngine value to a canonical
// engine name ("" selects the arena engine; "arena" is accepted as an alias).
func normalizeCacheEngine(e string) (string, error) {
	switch e {
	case "", CacheEngineArena, "arena":
		return CacheEngineArena, nil
	case CacheEngineLRU:
		return CacheEngineLRU, nil
	default:
		return "", fmt.Errorf("core: unknown cache engine %q (want %q or %q)", e, CacheEngineLRU, CacheEngineArena)
	}
}

// CacheEngineStats is the byte-accounting snapshot of one table's cache —
// memory as a budgeted resource, not just entry counts.
type CacheEngineStats struct {
	// Engine is the engine name (CacheEngineLRU or CacheEngineArena).
	Engine string
	// BytesResident is the payload bytes of resident entries. For the arena
	// engine this is exact (entries x fp16 slot size); for the LRU engine it
	// is the decoded-vector payload (entries x 4 x dim), excluding the
	// per-entry heap overhead the engine exists to have.
	BytesResident int64
	// ArenaBytes is the total allocated slab bytes (0 for the LRU engine,
	// which has no arenas).
	ArenaBytes int64
	// ArenaUtilization is BytesResident / ArenaBytes (0 without arenas).
	ArenaUtilization float64
	// Slabs is the allocated slab count (0 for the LRU engine).
	Slabs int
	// FreeSlots is the arena slots ready for reuse; LimboSlots the evicted
	// slots still waiting for the leases that may read them to end (both 0
	// for the LRU engine). Limbo that keeps growing means leases are not
	// being released.
	FreeSlots  int
	LimboSlots int
}

// tableCache is the serving path's view of a per-table DRAM cache. Both
// engines implement exactly the Bandana cache semantics the simulator tunes
// (segmented per-shard LRU, positional AddAt insertion, prefetch-flag
// accounting, in-place Resize) and are drop-in equivalent for hit/miss/
// eviction sequences; they differ in memory representation and in the
// lifetime of the views they hand out (see StableViews/Lease).
type tableCache interface {
	// GetFloat serves a float hit: it promotes id, clears the prefetched
	// flag and returns the decoded vector (a stable slice the caller may
	// hand out) plus whether the entry was an unclaimed prefetch.
	GetFloat(id uint32) (vec []float32, wasPrefetched, ok bool)
	// GetRequested promotes id if cached, and returns its decoded vector
	// only when the entry was inserted by a request (not an unclaimed
	// prefetch), without clearing the prefetched flag — the coalesced-miss
	// reuse probe.
	GetRequested(id uint32) ([]float32, bool)
	// GetRaw serves a raw (fp16) hit: promotes, clears the prefetched flag
	// and returns the encoded bytes. The view is only guaranteed stable
	// while a Lease is held (see StableViews).
	GetRaw(id uint32) (raw []byte, wasPrefetched, ok bool)
	// Insert caches id at queue position pos, all under the owning shard's
	// lock: it aborts if guard's value no longer equals want (the table
	// mutated since the caller read its bytes), or if prefetched is set and
	// id is already cached (never demote a requested entry to a prefetch).
	// raw is the vector's fp16 encoding (always available at the call
	// sites); rawOwned says the bytes are immutable and heap-stable, so an
	// engine that retains raw by reference may keep them without copying.
	// vec is the decoded vector; nil when the engine reported
	// NeedsDecoded()==false and the caller skipped the decode.
	Insert(id uint32, vec []float32, raw []byte, rawOwned bool, pos float64, prefetched bool, guard *atomic.Uint64, want uint64) bool
	// Remove deletes id and reports whether it was present.
	Remove(id uint32) bool
	// Resize changes the capacity in place (incremental per-shard eviction;
	// the working set survives). Returns the engine's recorded capacity.
	Resize(capacity int) int
	Len() int
	NumShards() int
	// Lease brackets a request that holds GetRaw views; the returned release
	// must be called when the request no longer reads them. The LRU engine's
	// lease is a shared no-op.
	Lease() func()
	// StableViews reports that GetRaw/GetFloat views outlive the lease (the
	// LRU engine's immutable heap slices). False means views into arenas:
	// valid only under the lease, copy to retain.
	StableViews() bool
	// NeedsDecoded reports whether Insert wants the decoded vector. The
	// arena engine stores only fp16 and lets prefetch admission skip the
	// decode entirely.
	NeedsDecoded() bool
	// EngineStats returns the engine's byte accounting.
	EngineStats() CacheEngineStats
}

// newTableCache builds a tableCache for a canonical engine name. dim is the
// table's vector element count (the arena engine sizes its slots from it).
func newTableCache(engine string, capacity, shards, dim int) tableCache {
	if engine == CacheEngineLRU {
		return &lruEngine{c: newVecCache(capacity, shards), dim: dim}
	}
	return &arenaEngine{
		c: vcache.New(vcache.Options{
			Capacity:  capacity,
			SlotBytes: dim * fp16.ByteSize,
			Shards:    shards,
			Hash:      hashID,
		}),
		dim: dim,
	}
}

// ---- classic LRU engine ----

// lruEngine adapts lru.Sharded[uint32, *cachedVec] (the original per-entry
// heap representation) to tableCache. Retained for equivalence testing and
// for callers that want stable zero-alloc float views.
type lruEngine struct {
	c   *vecCache
	dim int
}

// noopRelease is the shared lease release of engines whose views are stable.
var noopRelease = func() {}

func (e *lruEngine) GetFloat(id uint32) (vec []float32, wasPrefetched, ok bool) {
	e.c.Do(id, func(c *lru.Cache[uint32, *cachedVec]) {
		if ent, hit := c.Get(id); hit {
			vec = ent.vec
			wasPrefetched = ent.prefetched
			ent.prefetched = false
			ok = true
		}
	})
	return vec, wasPrefetched, ok
}

func (e *lruEngine) GetRequested(id uint32) (vec []float32, served bool) {
	e.c.Do(id, func(c *lru.Cache[uint32, *cachedVec]) {
		if ent, hit := c.Get(id); hit && !ent.prefetched {
			vec = ent.vec
			served = true
		}
	})
	return vec, served
}

func (e *lruEngine) GetRaw(id uint32) (raw []byte, wasPrefetched, ok bool) {
	e.c.Do(id, func(c *lru.Cache[uint32, *cachedVec]) {
		if ent, hit := c.Get(id); hit {
			if ent.raw == nil {
				// Cached by the float path and never served raw: build the
				// fp16 view once, under the shard lock.
				ent.raw = fp16.EncodeSlice(make([]byte, 0, len(ent.vec)*fp16.ByteSize), ent.vec)
			}
			raw = ent.raw
			wasPrefetched = ent.prefetched
			ent.prefetched = false
			ok = true
		}
	})
	return raw, wasPrefetched, ok
}

func (e *lruEngine) Insert(id uint32, vec []float32, raw []byte, rawOwned bool, pos float64, prefetched bool, guard *atomic.Uint64, want uint64) bool {
	inserted := false
	if !rawOwned {
		// The bytes belong to a recycled block buffer; the entry's raw view
		// is rebuilt lazily on the first raw hit instead.
		raw = nil
	}
	e.c.Do(id, func(c *lru.Cache[uint32, *cachedVec]) {
		if guard != nil && guard.Load() != want {
			return
		}
		if prefetched && c.Contains(id) {
			return
		}
		c.AddAt(id, &cachedVec{vec: vec, raw: raw, prefetched: prefetched}, pos)
		inserted = true
	})
	return inserted
}

func (e *lruEngine) Remove(id uint32) bool   { return e.c.Remove(id) }
func (e *lruEngine) Resize(capacity int) int { return e.c.Resize(capacity) }
func (e *lruEngine) Len() int                { return e.c.Len() }
func (e *lruEngine) NumShards() int          { return e.c.NumShards() }
func (e *lruEngine) Lease() func()           { return noopRelease }
func (e *lruEngine) StableViews() bool       { return true }
func (e *lruEngine) NeedsDecoded() bool      { return true }

func (e *lruEngine) EngineStats() CacheEngineStats {
	return CacheEngineStats{
		Engine:        CacheEngineLRU,
		BytesResident: int64(e.c.Len()) * int64(e.dim) * 4,
	}
}

// ---- pointer-free arena engine ----

// arenaEngine adapts vcache.Cache to tableCache. Payloads live as fp16 in
// slab arenas; float results are decoded fresh under the shard lock (one
// allocation per float hit), raw results are zero-copy arena views valid
// under the caller's lease.
type arenaEngine struct {
	c   *vcache.Cache
	dim int
}

func (e *arenaEngine) GetFloat(id uint32) (vec []float32, wasPrefetched, ok bool) {
	ok = e.c.GetFunc(id, func(payload []byte, wasPre bool) {
		vec = make([]float32, e.dim)
		fp16.DecodeSlice(vec, payload)
		wasPrefetched = wasPre
	})
	return vec, wasPrefetched, ok
}

func (e *arenaEngine) GetRequested(id uint32) (vec []float32, served bool) {
	served = e.c.GetRequestedFunc(id, func(payload []byte) {
		vec = make([]float32, e.dim)
		fp16.DecodeSlice(vec, payload)
	})
	return vec, served
}

func (e *arenaEngine) GetRaw(id uint32) (raw []byte, wasPrefetched, ok bool) {
	return e.c.Get(id)
}

func (e *arenaEngine) Insert(id uint32, _ []float32, raw []byte, _ bool, pos float64, prefetched bool, guard *atomic.Uint64, want uint64) bool {
	// The arena copies raw regardless of ownership and never stores the
	// decoded vector.
	return e.c.AddAtGuard(id, raw, pos, prefetched, guard, want)
}

func (e *arenaEngine) Remove(id uint32) bool   { return e.c.Remove(id) }
func (e *arenaEngine) Resize(capacity int) int { return e.c.Resize(capacity) }
func (e *arenaEngine) Len() int                { return e.c.Len() }
func (e *arenaEngine) NumShards() int          { return e.c.NumShards() }
func (e *arenaEngine) Lease() func()           { return e.c.Lease() }
func (e *arenaEngine) StableViews() bool       { return false }
func (e *arenaEngine) NeedsDecoded() bool      { return false }

func (e *arenaEngine) EngineStats() CacheEngineStats {
	st := e.c.Stats()
	return CacheEngineStats{
		Engine:           CacheEngineArena,
		BytesResident:    st.BytesResident,
		ArenaBytes:       st.ArenaBytes,
		ArenaUtilization: st.Utilization,
		Slabs:            st.Slabs,
		FreeSlots:        st.FreeSlots,
		LimboSlots:       st.LimboSlots,
	}
}
