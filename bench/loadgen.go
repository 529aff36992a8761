package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// traffic turns the dataset's held-out batches into a stream of operations:
// operation i looks batch i up, except that on workloads with updates every
// updateEvery-th operation instead overwrites the first id of the next batch
// (a hot, usually cached vector). The stream wraps around the batches.
type traffic struct {
	batches     []Batch
	oracle      *oracle
	updateEvery int
	cursor      atomic.Int64

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string
}

const maxListedErrors = 20

func (t *traffic) fail(err error) {
	t.failed.Add(1)
	t.errMu.Lock()
	if len(t.errs) < maxListedErrors {
		t.errs = append(t.errs, err.Error())
	}
	t.errMu.Unlock()
}

func (t *traffic) batch(i int64) Batch { return t.batches[i%int64(len(t.batches))] }

// do runs operation i on c, checks every returned vector against the oracle
// and counts a failed, refused or wrong operation. It returns the vectors
// looked up and whether the operation was an update.
func (t *traffic) do(c client, i int64) (vectors int, update bool) {
	t.attempted.Add(1)
	if t.updateEvery > 0 && i%int64(t.updateEvery) == int64(t.updateEvery)-1 {
		b := t.batch(i + 1)
		id := b.IDs[0]
		if err := t.oracle.update(b.Table, id, func(raw []byte) error { return c.Update(b.Table, id, raw) }); err != nil {
			t.fail(fmt.Errorf("update table %d id %d: %w", b.Table, id, err))
		}
		return 0, true
	}
	b := t.batch(i)
	floors := t.oracle.floors(b.Table, b.IDs)
	res, err := c.Lookup(b.Table, b.IDs)
	if err == nil {
		err = t.oracle.check(b.Table, b.IDs, res, floors)
	}
	if err != nil {
		t.fail(fmt.Errorf("lookup batch %d: %w", i, err))
		return 0, false
	}
	return len(b.IDs), false
}

// next claims the next operation of the stream.
func (t *traffic) next() int64 { return t.cursor.Add(1) - 1 }

// replay runs the next n operations one at a time on one client: the
// deterministic phase whose counters repeat exactly for a seed.
func (t *traffic) replay(c client, n int) (vectors int) {
	for k := 0; k < n; k++ {
		v, _ := t.do(c, t.next())
		vectors += v
	}
	return vectors
}

// drain runs the next n operations across all clients, each exactly once,
// in no particular order (cache pre-warming).
func (t *traffic) drain(clients []client, n int) {
	end := t.cursor.Load() + int64(n)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c client) {
			defer wg.Done()
			for {
				i := t.next()
				if i >= end {
					return
				}
				t.do(c, i)
			}
		}(c)
	}
	wg.Wait()
	t.cursor.Store(end)
}

// closedLoop drives one outstanding operation per client for d: the callers
// are ranking servers that block on the lookup, so a slower store is offered
// less load. Latency runs from the send. before, when set, runs ahead of
// every operation (the traced phase numbers its requests there) and after
// right behind it.
func (t *traffic) closedLoop(clients []client, d time.Duration, before func(), after func(start, end time.Time)) []sample {
	start := time.Now()
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c client) {
			defer wg.Done()
			for time.Since(start) < d {
				if before != nil {
					before()
				}
				t0 := time.Now()
				v, upd := t.do(c, t.next())
				t1 := time.Now()
				if after != nil {
					after(t0, t1)
				}
				per[ci] = append(per[ci], sample{done: t1.Sub(start), latency: t1.Sub(t0), vectors: v, update: upd})
			}
		}(ci, c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// dueOffset is when arrival k of a constant-rate schedule is due, measured
// from the start of the phase. It is computed from k, never accumulated, so
// rounding cannot drift the schedule.
func dueOffset(k int, perSecond float64) time.Duration {
	return time.Duration(float64(k) / perSecond * float64(time.Second))
}

// arrivals is how many arrivals a schedule of the given rate has in d.
func arrivals(perSecond float64, d time.Duration) int {
	return int(perSecond * d.Seconds())
}

// spinBelow is how close to a due time the pacer stops sleeping and yields
// in a loop instead: timer wake-ups on this box land tens of microseconds
// late, yielding does not.
const spinBelow = 150 * time.Microsecond

// maxInFlight bounds the open loop's backlog; an arrival beyond it is
// refused and counts as failed.
const maxInFlight = 4096

// openLoop sends operations on a constant-interval schedule for d, never
// waiting for a reply before the next send: arrivals are independent of how
// the store is doing, so a stall delays everything queued behind it and
// that wait is counted, because latency runs from the due time. It returns
// the samples and how late the generator itself ran (p99, microseconds).
func (t *traffic) openLoop(clients []client, perSecond float64, d time.Duration) ([]sample, float64) {
	n := arrivals(perSecond, d)
	samples := make([]sample, n)
	lag := make([]float64, n)
	slots := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < n; k++ {
		due := dueOffset(k, perSecond)
		for {
			ahead := due - time.Since(start)
			if ahead <= 0 {
				break
			}
			if ahead > spinBelow {
				time.Sleep(ahead - spinBelow)
			} else {
				runtime.Gosched()
			}
		}
		lag[k] = float64(time.Since(start)-due) / float64(time.Microsecond)
		i := t.next()
		select {
		case slots <- struct{}{}:
		default:
			t.attempted.Add(1)
			t.fail(fmt.Errorf("open loop: arrival %d refused, %d already in flight", k, maxInFlight))
			samples[k] = sample{done: time.Since(start), latency: time.Since(start) - due}
			continue
		}
		wg.Add(1)
		go func(k int, c client) {
			defer wg.Done()
			v, upd := t.do(c, i)
			end := time.Since(start)
			samples[k] = sample{done: end, latency: end - due, vectors: v, update: upd}
			<-slots
		}(k, clients[k%len(clients)])
	}
	wg.Wait()
	sort.Float64s(lag)
	return samples, percentile(lag, 0.99)
}
