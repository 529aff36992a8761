package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bandana/internal/fp16"
)

// tagVec is a vector that carries tag exactly in fp16: its first two
// components are tag's low and high 10 bits.
func tagVec(dim int, tag int32) []float32 {
	v := testVec(dim, 0)
	v[0], v[1] = float32(tag%1024), float32(tag/1024)
	return v
}

// tagOf reads the tag of a vector tagVec made, and whether raw is one.
func tagOf(dim int, raw []byte) (int32, bool) {
	v := make([]float32, dim)
	fp16.DecodeSlice(v, raw)
	tag := int32(v[0]) + 1024*int32(v[1])
	return tag, slices.Equal(raw, rawOf(tagVec(dim, tag)))
}

// TestSwapServesAcknowledgedUpdates: adaptation epochs swap a table's cache
// — growing it to the whole table, shrinking it below its table and
// pinning it again — while a goroutine updates hot ids with tagged vectors
// and others look them up. Each update's tag is counted started before
// UpdateVector and acknowledged after it returns; a lookup must serve a hot
// id's vector of a tag at least the one acknowledged before the lookup
// began and at most the one started when it ended. A swap that copied the
// old cache while an update could be acknowledged, before the new cache is
// published, would serve the copy's older tag.
func TestSwapServesAcknowledgedUpdates(t *testing.T) {
	s, eval := pinnedStore(t, 8)
	st := s.tables[0]
	// A small recorder ring bounds each epoch's window, however many
	// lookups the readers make between epochs.
	if err := s.StartAdaptation(AdaptOptions{MinQueries: 16, MinPrefetchGain: 0.01, RecorderQueries: 512}); err != nil {
		t.Fatal(err)
	}
	hot := st.loadState().admit.pinnedIDs()[:32]
	var acked, started [32]atomic.Int32
	for k, id := range hot {
		if err := s.UpdateVector(0, id, tagVec(st.dim, 1)); err != nil {
			t.Fatal(err)
		}
		acked[k].Store(1)
		started[k].Store(1)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !done.Load() {
				ids := slices.Clone(eval.Queries[rng.Intn(len(eval.Queries))])
				ks := rng.Perm(len(hot))[:8]
				for _, k := range ks {
					if !slices.Contains(ids, hot[k]) {
						ids = append(ids, hot[k])
					}
				}
				var lo [32]int32
				for k := range lo {
					lo[k] = acked[k].Load()
				}
				got, err := s.LookupBatchRaw(0, ids)
				if err != nil {
					errs <- err
					return
				}
				for i, id := range ids {
					k := slices.Index(hot, id)
					if k < 0 {
						continue
					}
					tag, ok := tagOf(st.dim, got[i])
					if hi := started[k].Load(); !ok || tag < lo[k] || tag > hi {
						errs <- fmt.Errorf("id %d served tag %d (a tagged vector: %v), want one of %d..%d", id, tag, ok, lo[k], hi)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; !done.Load(); n++ {
			k := n % len(hot)
			tag := started[k].Load() + 1
			started[k].Store(tag)
			if err := s.UpdateVector(0, hot[k], tagVec(st.dim, tag)); err != nil {
				errs <- err
				return
			}
			acked[k].Store(tag)
			time.Sleep(time.Microsecond)
		}
	}()

	// Budgets cycle through the whole table, less than the pinned
	// allocation and the allocation again, until the epochs have swapped
	// in each form: the tuner's pin verdict depends on the window.
	var whole, repinned, shrunk, epochs int
	for ; epochs < 12 || epochs < 30 && (whole == 0 || repinned == 0 || shrunk == 0); epochs++ {
		budget := []int{st.numVectors, 150, 300}[epochs%3]
		setDRAMBudget(s, budget)
		if err := serveConcurrently(s, eval.Queries[:256]); err != nil {
			t.Fatal(err)
		}
		before := st.loadState()
		if _, err := s.AdaptNow(); err != nil {
			t.Fatal(err)
		}
		after := st.loadState()
		switch {
		case after.cache.Whole():
			whole++
		case after.admit.pinnedSet() != nil:
			repinned++
		}
		if after.cacheCap < before.cacheCap {
			shrunk++
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("of %d epochs %d grew the cache to the whole table, %d pinned it and %d shrank it; %d updates of each hot id",
		epochs, whole, repinned, shrunk, acked[0].Load())
	if whole == 0 || repinned == 0 || shrunk == 0 {
		t.Fatalf("of %d epochs %d grew the cache to the whole table, %d pinned it and %d shrank it: want each", epochs, whole, repinned, shrunk)
	}
}
