package vcache_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bandana/internal/vcache"
)

// pinShard is one shard of pinModel: a spec list and the entries held off
// it, with the list's bound taken from the shard's whole capacity.
type pinShard struct {
	*spec
	held map[uint32]specEntry
}

// pinModel is the reference the pinned form is held to: the pinned
// behaviour of the package comment written with plain slices and maps. set
// is the pinned set (nil: none); whole > 0 is the whole-table form over
// [0, whole), where every entry is held and keeps its prefetched flag.
type pinModel struct {
	shards []*pinShard
	set    map[uint32]bool
	whole  int
}

func newPinModel(capacity, shards int) *pinModel {
	m := &pinModel{}
	for _, s := range newSpecShards(capacity, shards) {
		m.shards = append(m.shards, &pinShard{spec: s, held: map[uint32]specEntry{}})
	}
	return m
}

func (m *pinModel) of(id uint32) *pinShard {
	return m.shards[vcache.Hash(id)&uint64(len(m.shards)-1)]
}

// cascadeFrom is rebalance(from): move each segment's overflow to the head
// of the next, from segment from on, stopping at the first within bound.
func (s *pinShard) cascadeFrom(from int) {
	target := (s.capacity + len(s.segs) - 1) / len(s.segs)
	for i := from; i+1 < len(s.segs) && len(s.segs[i]) > target; i++ {
		for n := len(s.segs[i]); n > target; n-- {
			s.segs[i+1] = slices.Insert(s.segs[i+1], 0, s.segs[i][n-1])
			s.segs[i] = s.segs[i][:n-1]
		}
	}
}

// push lists e at the head of segment seg and cascades from there.
func (s *pinShard) push(e specEntry, seg int) {
	s.segs[seg] = slices.Insert(s.segs[seg], 0, e)
	s.cascadeFrom(seg)
}

// evictOver evicts the list's LRU entry while the shard holds more than its
// capacity, returning the last victim.
func (s *pinShard) evictOver() (victim uint32, evicted bool) {
	for s.len()+len(s.held) > s.capacity {
		last := len(s.segs) - 1
		for last >= 0 && len(s.segs[last]) == 0 {
			last--
		}
		if last < 0 {
			break
		}
		n := len(s.segs[last])
		victim, evicted = s.segs[last][n-1].id, true
		s.segs[last] = s.segs[last][:n-1]
	}
	return victim, evicted
}

func (s *pinShard) resident(id uint32) (specEntry, bool) {
	if e, ok := s.held[id]; ok {
		return e, true
	}
	for _, seg := range s.segs {
		for _, e := range seg {
			if e.id == id {
				return e, true
			}
		}
	}
	return specEntry{}, false
}

// file lists or holds e, new or just unlinked, at queue position pos.
func (m *pinModel) file(s *pinShard, e specEntry, pos float64) {
	if m.set[e.id] && !e.pre && !e.warm {
		s.held[e.id] = e
		return
	}
	s.push(e, s.segAt(pos))
}

// segAt is the segment queue position pos lands in.
func (s *pinShard) segAt(pos float64) int {
	return min(int(min(max(pos, 0), 1)*float64(len(s.segs))), len(s.segs)-1)
}

// warm is Warm: each id of ids, in order, that is not resident and whose
// shard has room free is listed unrequested at pos, with gen(id).
func (m *pinModel) warm(ids []uint32, gen func(uint32) byte, pos float64) (filled int) {
	if m.whole > 0 {
		return 0
	}
	for _, id := range ids {
		s := m.of(id)
		if _, ok := s.resident(id); ok || s.len()+len(s.held) >= s.capacity {
			continue
		}
		s.push(specEntry{id: id, gen: gen(id), warm: true}, s.segAt(pos))
		filled++
	}
	return filled
}

// refresh is Refresh: a held entry takes gen as a requested one, a listed
// one leaves.
func (m *pinModel) refresh(id uint32, gen byte) bool {
	s := m.of(id)
	if _, ok := s.held[id]; ok {
		s.held[id] = specEntry{id: id, gen: gen}
		return true
	}
	s.take(id)
	return false
}

// addAt is AddAt: it returns the eviction and whether id was taken.
func (m *pinModel) addAt(e specEntry, pos float64) (victim uint32, evicted, ok bool) {
	s := m.of(e.id)
	if m.whole > 0 {
		if int(e.id) >= m.whole {
			return 0, false, false
		}
		s.held[e.id] = e
		return 0, false, true
	}
	if _, ok := s.held[e.id]; ok {
		if !e.pre {
			s.held[e.id] = e
			return 0, false, true
		}
		delete(s.held, e.id)
		m.file(s, e, pos)
		return 0, false, true
	}
	if _, listed := s.take(e.id); listed {
		m.file(s, e, pos)
		return 0, false, true
	}
	if s.len()+len(s.held) >= s.capacity && s.len() == 0 {
		return 0, false, false
	}
	m.file(s, e, pos)
	victim, evicted = s.evictOver()
	return victim, evicted, true
}

// get is Get: a held entry is served as it is (its flag cleared in the
// whole form), a listed one moves to the head of segment 0, or is held
// once its id is pinned.
func (m *pinModel) get(id uint32) (specEntry, bool) {
	s := m.of(id)
	if e, ok := s.held[id]; ok {
		s.held[id] = specEntry{id: id, gen: e.gen}
		return e, true
	}
	e, ok := s.take(id)
	if ok {
		m.file(s, specEntry{id: id, gen: e.gen}, 0)
	}
	return e, ok
}

func (m *pinModel) remove(id uint32) bool {
	s := m.of(id)
	if _, ok := s.held[id]; ok {
		delete(s.held, id)
		return true
	}
	_, ok := s.take(id)
	return ok
}

// reform is Pin (set non-nil) or Resize (set nil) with shard capacities
// caps: a listed requested entry the set pins is held; an entry held before
// (whole-form prefetched ones first, then the rest in id order) stays held
// when the set pins it and it is requested, and otherwise joins the head of
// the last segment (the first without a set); then the overflow goes and
// every segment is rebalanced.
func (m *pinModel) reform(set map[uint32]bool, caps []int) {
	seg := func(s *pinShard) int {
		if set == nil {
			return 0
		}
		return len(s.segs) - 1
	}
	m.set = set
	type heldEntry struct {
		s *pinShard
		e specEntry
	}
	var before []heldEntry
	for i, s := range m.shards {
		s.capacity = caps[i]
		for id, e := range s.held {
			before = append(before, heldEntry{s, e})
			delete(s.held, id)
		}
		for k := range s.segs {
			s.segs[k] = slices.DeleteFunc(s.segs[k], func(e specEntry) bool {
				if set[e.id] && !e.pre && !e.warm {
					s.held[e.id] = e
					return true
				}
				return false
			})
		}
	}
	slices.SortFunc(before, func(a, b heldEntry) int { return int(a.e.id) - int(b.e.id) })
	if m.whole > 0 {
		for _, h := range before {
			if h.e.pre {
				h.s.push(h.e, len(h.s.segs)-1)
			}
		}
	}
	for _, h := range before {
		if !h.e.pre {
			if set[h.e.id] {
				h.s.held[h.e.id] = h.e
			} else {
				h.s.push(h.e, seg(h.s))
			}
		}
	}
	m.whole = 0
	for _, s := range m.shards {
		s.evictOver()
		for k := range s.segs {
			s.cascadeFrom(k)
		}
	}
}

// pinWhole is PinWhole(n): every entry of [0, n) is held with its flag.
func (m *pinModel) pinWhole(n int, caps []int) {
	for i, s := range m.shards {
		s.capacity = caps[i]
		for _, seg := range s.segs {
			for _, e := range seg {
				e.warm = false
				s.held[e.id] = e
			}
		}
		for k := range s.segs {
			s.segs[k] = nil
		}
		for id := range s.held {
			if int(id) >= n {
				delete(s.held, id)
			}
		}
	}
	m.set, m.whole = nil, n
}

// caps returns the number of ids of ids that hash to each of n shards.
func capsOf(ids []uint32, n int) []int {
	caps := make([]int, n)
	for _, id := range ids {
		caps[vcache.Hash(id)&uint64(n-1)]++
	}
	return caps
}

// comparePinned holds vc to m: the recency lists in order with their
// flags, the shard capacities, the entry count and the invariants.
func comparePinned(t *testing.T, step int, vc *vcache.Cache, m *pinModel) {
	t.Helper()
	total := 0
	for i, s := range m.shards {
		got, gotPre := vc.ShardKeys(i)
		want, wantPre := s.keys()
		if !slices.Equal(got, want) || !slices.Equal(gotPre, wantPre) {
			t.Fatalf("step %d shard %d: vcache lists %v %v, model %v %v", step, i, got, gotPre, want, wantPre)
		}
		total += s.len() + len(s.held)
	}
	var caps []int
	for _, s := range m.shards {
		caps = append(caps, s.capacity)
	}
	if got := vc.ShardCapacities(); !slices.Equal(got, caps) {
		t.Fatalf("step %d: shard capacities %v, model %v", step, got, caps)
	}
	if vc.Len() != total {
		t.Fatalf("step %d: holding %d entries, model %d", step, vc.Len(), total)
	}
	if err := vc.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// TestPinnedFormMatchesModel drives the pinned form and pinModel with one
// random op stream — inserts at every position, prefetched pinned ids that
// stay on the list until asked for, warm fills, hits through Get and
// GetBatch (with fills), prefetch admissions, removals, refreshes, and
// conversions Pin→Pin,
// Pin→Resize, Pin↔PinWhole and Resize→Pin, with sets that leave many shards
// fewer ids than segments or none — and compares every result, every
// shard's list in order with its flags, the capacities and the invariants
// after each op.
func TestPinnedFormMatchesModel(t *testing.T) {
	for _, cfg := range []struct {
		capacity, shards int
	}{
		{16, 1}, {64, 1}, {64, 4}, {200, 8},
	} {
		t.Run(fmt.Sprintf("cap%d_shards%d", cfg.capacity, cfg.shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.capacity)*7 + int64(cfg.shards)))
			vc := newTestCache(cfg.capacity, cfg.shards)
			m := newPinModel(cfg.capacity, cfg.shards)
			n := vc.NumShards()
			keySpace := uint32(cfg.capacity * 3)
			pin := func(step int) {
				var ids []uint32
				for id := range keySpace {
					if rng.Intn(4) == 0 && len(ids) < cfg.capacity {
						ids = append(ids, id)
					}
				}
				if rng.Intn(3) == 0 {
					ids = ids[:len(ids)/4] // few ids: shards below the segment count
				}
				set := map[uint32]bool{}
				for _, id := range ids {
					set[id] = true
				}
				vc.Pin(bitset(ids))
				m.reform(set, capsOf(ids, n))
				if vc.Cap() != len(ids) {
					t.Fatalf("step %d: Pin of %d ids: capacity %d", step, len(ids), vc.Cap())
				}
			}
			pin(-1)
			gens := map[uint32]byte{}
			for step := range 8000 {
				id := rng.Uint32() % keySpace
				if _, want := m.of(id).resident(id); vc.Contains(id) != want {
					t.Fatalf("step %d: Contains(%d) = %v, model %v", step, id, !want, want)
				}
				switch op := rng.Intn(40); {
				case op < 12: // AddAt, a quarter as prefetches
					pos := rng.Float64()
					pre := rng.Intn(4) == 0
					gens[id]++
					victim, evicted := vc.AddAt(id, payloadFor(id, gens[id]), pos, pre)
					wantVictim, wantEvicted, _ := m.addAt(specEntry{id: id, gen: gens[id], pre: pre}, pos)
					checkAdd(t, step, id, victim, evicted, wantVictim, wantEvicted)
				case op < 15: // prefetch admission
					gens[id]++
					got := vc.AddAtGuard(id, payloadFor(id, gens[id]), 0.5, true, nil, 0)
					want := false
					if _, ok := m.of(id).resident(id); !ok {
						_, _, want = m.addAt(specEntry{id: id, gen: gens[id], pre: true}, 0.5)
					}
					if got != want {
						t.Fatalf("step %d: prefetch admission of %d = %v, model %v", step, id, got, want)
					}
				case op < 22: // Get
					var vGen byte
					var vPre bool
					vOK := vc.GetFunc(id, func(p []byte, pre bool) { vGen, vPre = p[4], pre })
					e, ok := m.get(id)
					if vOK != ok || ok && (vGen != e.gen || vPre != e.pre) {
						t.Fatalf("step %d: Get(%d) = (%v, gen %d, pre %v), model (%v, gen %d, pre %v)", step, id, vOK, vGen, vPre, ok, e.gen, e.pre)
					}
				case op < 32: // GetBatch with fills
					ids := []uint32{id}
					for k := rng.Intn(12); k > 0; k-- {
						if next := rng.Uint32() % keySpace; !slices.Contains(ids, next) {
							ids = append(ids, next)
						}
					}
					fill := make([]bool, len(ids))
					for i, id := range ids {
						if fill[i] = rng.Intn(2) == 0; fill[i] {
							gens[id]++
						}
					}
					views := make([][]byte, len(ids))
					release := vc.Lease()
					gotPre := vc.GetBatch(ids, views, func(i int) []byte {
						if !fill[i] {
							return nil
						}
						return payloadFor(ids[i], gens[ids[i]])
					})
					wantPre := 0
					for i, id := range ids {
						e, hit := m.get(id)
						switch {
						case hit && (views[i] == nil || views[i][4] != e.gen):
							t.Fatalf("step %d: GetBatch %v: id %d hit in the model (gen %d), view %v", step, ids, id, e.gen, views[i])
						case !hit && views[i] != nil:
							t.Fatalf("step %d: GetBatch %v: id %d missed in the model, got a view", step, ids, id)
						case hit && e.pre:
							wantPre++
						case !hit && fill[i]:
							m.addAt(specEntry{id: id, gen: gens[id]}, 0)
						}
					}
					release()
					if gotPre != wantPre {
						t.Fatalf("step %d: GetBatch %v: %d prefetched hits, model %d", step, ids, gotPre, wantPre)
					}
				case op < 36: // Remove
					if got, want := vc.Remove(id), m.remove(id); got != want {
						t.Fatalf("step %d: Remove(%d) = %v, model %v", step, id, got, want)
					}
				case op == 36 && step%5 == 0:
					pin(step)
				case op == 37 && step%5 == 0:
					target := 1 + rng.Intn(cfg.capacity*2)
					got := vc.Resize(target)
					target = max(target, n)
					caps := make([]int, n)
					for i := range caps {
						caps[i] = target / n
						if i < target%n {
							caps[i]++
						}
					}
					m.reform(nil, caps)
					if got != target {
						t.Fatalf("step %d: Resize = %d, want %d", step, got, target)
					}
				case op == 38 && step%5 == 0:
					ids := make([]uint32, keySpace/2)
					for i := range ids {
						ids[i] = uint32(i)
					}
					vc.PinWhole(len(ids))
					m.pinWhole(len(ids), capsOf(ids, n))
				case op == 39 && rng.Intn(2) == 0: // Warm
					ids := []uint32{id}
					for k := rng.Intn(12); k > 0; k-- {
						if next := rng.Uint32() % keySpace; !slices.Contains(ids, next) {
							ids = append(ids, next)
						}
					}
					pos := rng.Float64()
					for _, id := range ids {
						gens[id]++
					}
					got := vc.Warm(ids, func(id uint32) []byte { return payloadFor(id, gens[id]) }, pos, nil, 0)
					if want := m.warm(ids, func(id uint32) byte { return gens[id] }, pos); got != want {
						t.Fatalf("step %d: Warm %v at %.2f filled %d, model %d", step, ids, pos, got, want)
					}
				case op == 39: // Refresh
					gens[id]++
					if got, want := vc.Refresh(id, payloadFor(id, gens[id])), m.refresh(id, gens[id]); got != want {
						t.Fatalf("step %d: Refresh(%d) = %v, model %v", step, id, got, want)
					}
				}
				comparePinned(t, step, vc, m)
			}
		})
	}
}

// TestPinnedHitsTakeNoRecord: a held pinned id keeps no record and no probe
// entry. Once the set fills its cache, the lists are empty and the index
// bytes are the slot words, the rank directory and each shard's small probe
// table.
func TestPinnedHitsTakeNoRecord(t *testing.T) {
	const pinned = 4096
	c := newTestCache(pinned, 8)
	ids := make([]uint32, pinned)
	for i := range ids {
		ids[i] = uint32(3 * i)
	}
	set := bitset(ids)
	c.Pin(set)
	for _, id := range ids {
		c.Add(id, payloadFor(id, 0), false)
	}
	st := c.Stats()
	if st.ListEntries != 0 || st.Entries != pinned {
		t.Fatalf("%d entries, %d listed; want %d, none listed", st.Entries, st.ListEntries, pinned)
	}
	// A probe table is rebuilt smaller only once it is over twice the size
	// the room needs, so an empty list keeps 8 or 16 words.
	words := int64(pinned*4 + len(set)*4)
	if st.MetaBytes != 0 || st.IndexBytes-words != st.ListBytes || st.ListBytes < 8*8*8 || st.ListBytes > 8*16*8 {
		t.Fatalf("records %d B, index %d B: want none, and %d B of slot words and rank directory plus 8-16 probe words a shard", st.MetaBytes, st.IndexBytes, words)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestResizeShrinksIndexAndRecords: a 4,096-id, 8-shard cache made whole and
// then resized to 1,024 holds no more probe-table and record bytes than a
// fresh 1,024-entry cache filled to the brim.
func TestResizeShrinksIndexAndRecords(t *testing.T) {
	const n, small = 4096, 1024
	c := newTestCache(n, 8)
	c.PinWhole(n)
	for id := range uint32(n) {
		c.Add(id, payloadFor(id, 0), false)
	}
	c.Resize(small)
	fresh := newTestCache(small, 8)
	for id := range uint32(n) {
		fresh.Add(id, payloadFor(id, 0), false)
	}
	got, want := c.Stats(), fresh.Stats()
	if got.Entries != small || want.Entries != small {
		t.Fatalf("resized cache holds %d, fresh %d; want %d each", got.Entries, want.Entries, small)
	}
	if got.MetaBytes+got.IndexBytes > want.MetaBytes+want.IndexBytes {
		t.Fatalf("resized cache keeps %d B of records and %d B of probe tables, a fresh one %d B and %d B", got.MetaBytes, got.IndexBytes, want.MetaBytes, want.IndexBytes)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedUnderConcurrentServing is the pinned form's -race stress test:
// readers serve lock-free hits on held ids and locked hits and fills on the
// rest under leases, checking that every view holds its id and stays intact
// until release, while a writer replaces (as requested entries and as
// prefetches) and removes entries and a converter re-pins, resizes and pins
// the cache whole and back.
func TestPinnedUnderConcurrentServing(t *testing.T) {
	const n = 2048
	c := newTestCache(n, 8)
	var even, odd []uint32
	for id := range uint32(n) {
		if id%2 == 0 {
			even = append(even, id)
		} else {
			odd = append(odd, id)
		}
	}
	sets := [][]uint64{bitset(even), bitset(odd), bitset(even[:n/8])}
	c.Pin(sets[0])
	for _, id := range even {
		c.Add(id, payloadFor(id, 1), false)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := range 3 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ids, views := make([]uint32, 32), make([][]byte, 32)
			held := make([]byte, 0, 32*testSlot)
			for !stop.Load() {
				release := c.Lease()
				for i, v := range rng.Perm(n)[:len(ids)] {
					ids[i] = uint32(v)
				}
				clear(views)
				c.GetBatch(ids, views, func(i int) []byte { return payloadFor(ids[i], 3) })
				if p, _, ok := c.Get(ids[0]); ok && idOf(p) != ids[0] {
					panic(fmt.Sprintf("Get(%d) holds id %d", ids[0], idOf(p)))
				}
				held = held[:0]
				for i, v := range views {
					if v != nil && idOf(v) != ids[i] {
						panic(fmt.Sprintf("view for id %d holds id %d", ids[i], idOf(v)))
					}
					held = append(held, v...)
				}
				runtime.Gosched()
				off := 0
				for _, v := range views {
					if !slices.Equal(v, held[off:off+len(v)]) {
						panic("a leased view changed under its lease")
					}
					off += len(v)
				}
				release()
			}
		}(int64(r))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for gen := byte(0); !stop.Load(); gen++ {
			id := uint32(rng.Intn(n))
			switch rng.Intn(4) {
			case 0:
				c.Remove(id)
			case 1:
				c.AddAtGuard(id, payloadFor(id, gen), 0.5, true, nil, 0)
			default:
				c.AddAt(id, payloadFor(id, gen), rng.Float64(), rng.Intn(4) == 0)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := range 120 {
			switch i % 4 {
			case 0:
				c.Pin(sets[i%3])
			case 1:
				c.Resize(n / 2)
				c.Pin(sets[(i+1)%3])
			case 2:
				c.PinWhole(n)
				c.Pin(sets[i%3])
			}
			runtime.Gosched()
		}
		stop.Store(true)
	}()
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedMissTakesNoLock: once every shard holds all of its pinned ids,
// the cache is sealed, and GetBatch answers an id outside the set as a miss
// without its shard's lock, on the single-shard path and the chained one
// alike: the miss callback runs with the lock free, and the payload it
// returns is not filled. A Remove unseals the removed id's shard, whose
// misses take the lock and fill again.
func TestSealedMissTakesNoLock(t *testing.T) {
	const n = 1024
	c := newTestCache(n, 8)
	var pinned, outside []uint32
	for id := range uint32(n) {
		if id%4 == 0 {
			pinned = append(pinned, id)
		} else {
			outside = append(outside, id)
		}
	}
	c.Pin(bitset(pinned))
	for _, id := range pinned {
		c.Add(id, payloadFor(id, 1), false)
	}
	if !c.Sealed() {
		t.Fatal("a cache holding every pinned id is not sealed")
	}
	release := c.Lease()
	defer release()
	for _, ids := range [][]uint32{outside[:1], {outside[1], pinned[1], outside[2], pinned[2]}, outside[3:67]} {
		views := make([][]byte, len(ids))
		calls, locked := 0, 0
		c.GetBatch(ids, views, func(i int) []byte {
			calls++
			if !c.ShardUnlocked(ids[i]) {
				locked++
			}
			return payloadFor(ids[i], 2)
		})
		want := 0
		for i, id := range ids {
			if id%4 == 0 {
				if views[i] == nil || idOf(views[i]) != id {
					t.Fatalf("held id %d not served", id)
				}
			} else {
				want++
				if views[i] != nil || c.Contains(id) {
					t.Fatalf("id %d outside the set was served or filled by a sealed cache", id)
				}
			}
		}
		if calls != want || locked != 0 {
			t.Fatalf("batch of %d ids: %d miss calls, %d under the shard lock; want %d, none locked", len(ids), calls, locked, want)
		}
	}
	if c.Len() != len(pinned) {
		t.Fatalf("sealed cache holds %d entries after its misses, want %d", c.Len(), len(pinned))
	}

	c.Remove(pinned[0])
	if c.Sealed() {
		t.Fatal("cache still sealed after a pinned id was removed")
	}
	var id uint32
	for _, o := range outside {
		if vcache.Hash(o)&7 == vcache.Hash(pinned[0])&7 {
			id = o
			break
		}
	}
	ids, views := []uint32{id}, make([][]byte, 1)
	locked := false
	c.GetBatch(ids, views, func(int) []byte {
		locked = !c.ShardUnlocked(id)
		return payloadFor(id, 3)
	})
	if !locked || !c.Contains(id) {
		t.Fatalf("miss on the unsealed shard: under its lock %v, filled %v; want both", locked, c.Contains(id))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedMissUnderConcurrentServing races GetBatch misses of ids outside
// the pinned set on a sealed cache, whose miss callback offers a payload,
// against what unseals it: Remove of pinned ids and their refills (which
// seal the shard again), and Pin, Resize and PinWhole conversions, each
// followed by a Pin of the set, refills, and a wait (of at most a second)
// until a reader has counted a batch on the sealed cache, so that the final
// count does not hang on how briefly the cache stays sealed between
// conversions. A lock-free miss that filled
// would write the shard without its lock; run under -race, that is a data
// race, and CheckInvariants then holds every shard to its form.
func TestSealedMissUnderConcurrentServing(t *testing.T) {
	const n = 512
	c := newTestCache(n, 8)
	var pinned, outside []uint32
	for id := range uint32(n) {
		if id%4 == 0 {
			pinned = append(pinned, id)
		} else {
			outside = append(outside, id)
		}
	}
	set := bitset(pinned)
	refill := func() {
		for _, id := range pinned {
			c.Add(id, payloadFor(id, 1), false)
		}
	}
	c.Pin(set)
	refill()
	if !c.Sealed() {
		t.Fatal("a cache holding every pinned id is not sealed")
	}
	var stop atomic.Bool
	var sealedBatches atomic.Int64
	var wg sync.WaitGroup
	for r := range 3 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := 1 + rng.Intn(32)
				ids, views := make([]uint32, k), make([][]byte, k)
				for i, v := range rng.Perm(len(outside))[:k] {
					ids[i] = outside[v]
				}
				if k > 1 {
					ids[0] = pinned[rng.Intn(len(pinned))]
				}
				if c.Sealed() {
					sealedBatches.Add(1)
				}
				release := c.Lease()
				c.GetBatch(ids, views, func(i int) []byte { return payloadFor(ids[i], 2) })
				for i, v := range views {
					if v != nil && idOf(v) != ids[i] {
						panic(fmt.Sprintf("view for id %d holds id %d", ids[i], idOf(v)))
					}
				}
				release()
				runtime.Gosched()
			}
		}(int64(r))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for !stop.Load() {
			id := pinned[rng.Intn(len(pinned))]
			c.Remove(id)
			runtime.Gosched()
			c.Add(id, payloadFor(id, 1), false)
			runtime.Gosched()
		}
	}()
	go func() {
		defer wg.Done()
		for i := range 30 {
			switch i % 3 {
			case 0:
				c.Pin(bitset(pinned[:len(pinned)/2]))
			case 1:
				c.Resize(n / 2)
			case 2:
				c.PinWhole(n)
			}
			runtime.Gosched()
			c.Pin(set)
			refill()
			// Let a reader count a batch on the sealed cache before the next
			// conversion unseals it, but wait no more than a second: the
			// remover unseals it too, and a reader only counts a batch that
			// begins while it is sealed.
			seen := sealedBatches.Load()
			for deadline := time.Now().Add(time.Second); sealedBatches.Load() == seen && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
		stop.Store(true)
	}()
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if sealedBatches.Load() == 0 {
		t.Fatal("no batch ran on a sealed cache: the lock-free miss was never raced")
	}
}

// TestPinnedHitPathZeroAlloc: Get and GetBatch on held pinned ids, and a
// GetBatch mixing them with listed ids, allocate nothing.
func TestPinnedHitPathZeroAlloc(t *testing.T) {
	c := newTestCache(1024, 8)
	ids := make([]uint32, 64)
	for i := range ids {
		ids[i] = uint32(i * 13)
	}
	c.Pin(bitset(ids[:48]))
	for _, id := range ids {
		c.Add(id, payloadFor(id, 0), false)
	}
	release := c.Lease()
	defer release()
	views := make([][]byte, len(ids))
	allocs := testing.AllocsPerRun(1000, func() {
		c.Get(ids[7])
		c.GetBatch(ids[:48], views, nil)
	})
	if views[47] == nil || allocs != 0 {
		t.Fatalf("pinned hits allocate %v allocs/op, want 0", allocs)
	}
	mixed := testing.AllocsPerRun(1000, func() { c.GetBatch(ids, views, nil) })
	if !raceEnabled && mixed != 0 {
		t.Fatalf("a batch of held and listed ids allocates %v allocs/op, want 0", mixed)
	}
}

// BenchmarkGetBatchPinned is a 45-id all-hit GetBatch on a 20k-id, 8-shard
// cache holding 3,252 pinned ids, with the payloads copied out — the shape
// of a pinned cold_bwp table's hits.
func BenchmarkGetBatchPinned(b *testing.B) {
	const n, pinned, batch, slot = 20_000, 3252, 45, 128
	rng := rand.New(rand.NewSource(1))
	ids := make([]uint32, pinned)
	for i, v := range rng.Perm(n)[:pinned] {
		ids[i] = uint32(v)
	}
	c := vcache.New(vcache.Options{Capacity: pinned, SlotBytes: slot, Shards: 8})
	c.Pin(bitset(ids))
	p := make([]byte, slot)
	for _, id := range ids {
		c.Add(id, p, false)
	}
	batches := make([][]uint32, 1024)
	for i := range batches {
		batches[i] = make([]uint32, batch)
		for k, v := range rng.Perm(pinned)[:batch] {
			batches[i][k] = ids[v]
		}
	}
	views, dst := make([][]byte, batch), make([]byte, batch*slot)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release := c.Lease()
		c.GetBatch(batches[i%len(batches)], views, nil)
		for k, v := range views {
			copy(dst[k*slot:], v)
		}
		release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/id")
}
