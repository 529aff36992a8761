package main

import (
	"fmt"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Shares of --seconds the traced run gives its phases; the direct-drive
// measurements after them do fixed work (about two seconds on the reference
// box).
const (
	loadedShare = 0.30 // concurrent closed loop, counters only
	openShare   = 0.25 // open loop at the declared rate
	oneShare    = 0.45 // one request in flight, in slices with recording off and on in turn
	oneSlices   = 10
)

// runTraced is the --trace 1 run: it prints the per-layer metrics. Spans are
// recorded at the seams the product already exposes while one request is in
// flight; below the backend seam it combines unit costs from driving each
// layer directly with the layers' own counters.
func runTraced(w workload, o runOptions) (*result, error) {
	rep := newReport(perLayer)
	var notes []string
	note := func(format string, args ...any) { notes = append(notes, fmt.Sprintf(format, args...)) }
	spans := newRecorder()
	e, err := setup(w, o, w.Name+"-t", spans)
	if err != nil {
		return nil, err
	}
	st, tr, node := e.st, e.tr, e.st.primary()
	rep.set("core.open_s", node.OpenS)
	rep.set("core.train_s", node.TrainS)
	rep.set("shp.fanout_before", node.Train.FanoutBefore)
	rep.set("shp.fanout_after", node.Train.FanoutAfter)
	rep.set("sim.predicted_bw_gain", node.Train.PredictedGain)
	if st.cluster != nil {
		rep.set("cluster.replica_bootstrap_s", st.cluster.ReplicaBootstrapS)
	}

	replay, warmS := e.warm(w)
	rep.set("loadgen.warmup_s", warmS)
	afterWarm := st.counters()

	// The untrained baseline on the same replay: what SHP placement and the
	// tuned admission save in block reads.
	if gain, err := untrainedGain(w, e, replay.BlockReads); err != nil {
		tr.fail(err)
	} else {
		rep.set("shp.effective_bw_gain", gain)
		if p := node.Train.PredictedGain; p > 0 {
			rep.set("sim.prediction_gap", (gain-1-p)/p)
		}
	}

	// Phase A: concurrent closed loop, recording off.
	e.loaded(seconds(loadedShare*o.Seconds), rep)

	// Phase B: open loop at the declared rate.
	if w.OpenPerSecond > 0 {
		open, lagP99 := tr.openLoop(st.clients, w.OpenPerSecond, seconds(openShare*o.Seconds))
		ol := latenciesUS(open, false)
		rep.set("e2e.open_p50_us", percentile(ol, 0.5))
		rep.set("e2e.open_p99_us", percentile(ol, 0.99))
		rep.set("loadgen.lag_p99_us", lagP99)
	}

	// Phase C: one request in flight, in slices with recording off and on
	// in turn, so that drift over the phase cancels. The difference between
	// the two kinds of slice in the client's p50 is what recording costs.
	one := st.clients[:1]
	var cd Counters
	var p50 [2][]float64
	for i := 0; i < oneSlices; i++ {
		on := i%2 == 1
		var before func()
		var after func(t0, t1 time.Time)
		if on {
			before = func() { spans.req.Add(1) }
			after = func(t0, t1 time.Time) { spans.record("request", "client", t0, t1) }
		}
		c0 := st.counters()
		spans.on.Store(on)
		slice := tr.closedLoop(one, seconds(oneShare*o.Seconds/oneSlices), before, after)
		spans.on.Store(false)
		if on {
			cd = cd.Add(st.counters().Sub(c0))
			p50[1] = append(p50[1], percentile(latenciesUS(slice, false), 0.5))
		} else {
			p50[0] = append(p50[0], percentile(latenciesUS(slice, false), 0.5))
		}
	}
	cd.Gauges = st.counters().Gauges
	pp50, tp50 := median(p50[0]), median(p50[1])
	if pp50 > 0 {
		rep.set("loadgen.trace_overhead_pct", 100*(tp50-pp50)/pp50)
	}
	spans.mu.Lock()
	recorded := append([]span(nil), spans.spans...)
	spans.mu.Unlock()
	sum := summarize(recorded)
	rep.set("server.backend_p50_us", sum.BackendP50US)
	rep.set("server.backend_p99_us", sum.BackendP99US)
	if st.cluster != nil {
		rep.set("cluster.router_handler_p50_us", sum.RouterP50US)
		rep.set("cluster.router_self_p50_us", sum.RouterSelfP50US)
		rep.set("cluster.client_http_p50_us", sum.ClientHTTPP50US)
		rep.set("cluster.nodes_per_batch", sum.BackendsPerRequest)
	} else {
		rep.set("wire.self_p50_us", sum.WireSelfP50US)
		rep.set("wire.self_p99_us", sum.WireSelfP99US)
	}
	rep.set("core.update_p50_us", sum.UpdateP50US)
	rep.set("core.stage_probe_p50_us", cd.ProbeP50US)
	rep.set("core.stage_queue_wait_p50_us", cd.QueueP50US)
	rep.set("core.stage_decode_p50_us", cd.DecodeP50US)
	// Modelled device latency: reported on its own, never summed with, or
	// divided into, a wall-clock time.
	rep.set("nvm.modelled_service_p50_us", cd.ModelledP50US)
	note("traced phase: %d requests, client p50 %.1f us recording on, %.1f us off", sum.Requests, tp50, pp50)

	// Phase D: drive the layers directly.
	if err := e.driveDirect(rep); err != nil {
		tr.fail(err)
	}
	if v := rep.values["e2e.closed_vectors_per_s"]; v > 0 {
		rep.set("wire.local_ratio", rep.values["core.local_vectors_per_s"]/v)
	}
	// Where the backend's wall-clock time went: the store's own stage clocks
	// plus an estimate of device time as block reads times the measured
	// wall-clock cost of one idle read. What is left is reported, not hidden.
	if sum.BackendTotalUS > 0 {
		device := float64(cd.BlockReads) * rep.values["nvm.read_block_wall_p50_us"]
		rep.set("nvm.est_device_share", device/sum.BackendTotalUS)
		rep.set("core.unaccounted_share", 1-(cd.ProbeSumUS+cd.QueueSumUS+cd.DecodeSumUS+device)/sum.BackendTotalUS)
	}

	if st.cluster != nil {
		rc, err := st.cluster.RouterCounters()
		if err != nil {
			tr.fail(fmt.Errorf("router stats: %w", err))
		}
		rep.set("cluster.hedges", float64(rc.Hedges))
		rep.set("cluster.hedge_wins", float64(rc.HedgeWins))
		rep.set("cluster.wire_requests", float64(rc.WireRequests))
		rep.set("cluster.wire_fallbacks", float64(rc.WireFallbacks))
		rep.set("cluster.node_errors", float64(rc.NodeErrors))
	}
	end := st.counters()
	upd := end.Sub(afterWarm)
	rep.set("wire.server_errors", float64(end.WireErrors))
	rep.set("nvm.flushes", float64(end.Flushes))
	if end.DirectIO {
		rep.set("nvm.direct_io", 1)
	}
	rep.set("nvm.space_amp", float64(node.DataDirBytes())/float64(e.ds.Bytes()))
	if upd.LogAppends > 0 {
		// Every byte the update path sent to storage (update log, ring
		// journal, in-place and compaction writes) per byte of updated vector.
		written := upd.LogBytes + upd.JournalBytes + upd.DevBytesWrit
		rep.set("nvm.bytes_written_per_update_byte", ratio(written, upd.LogAppends*int64(e.ds.VecBytes)))
		rep.set("nvm.journal_writes_per_update", ratio(upd.JournalWrites, upd.LogAppends))
	}
	rep.set("proc.heap_inuse_mb", float64(heapInuse())/1e6)
	_, rss := rusage()
	rep.set("proc.rss_mb", rss)

	closeS, reopenS, verified := e.finish()
	rep.set("core.compact_final_s", closeS)
	rep.set("core.reopen_s", reopenS)
	if verified > 0 {
		rep.set("core.reopen_verified", 1)
	}
	note("store reopened from disk in %.3f s: %d vectors verified", reopenS, verified)

	path, err := writeTrace(o.OutDir, w.Name, o.Seed, recorded)
	if err != nil {
		return nil, err
	}
	note("%d spans written to %s", len(recorded), path)

	res := e.result(rep, notes)
	rep.set("e2e.error_rate", ratio(res.failed, res.attempted))
	return res, nil
}

// untrainedGain replays the count replay in-process against an untrained
// store with the same DRAM budget and returns its block reads over the
// trained store's: the paper's effective-bandwidth gain.
func untrainedGain(w workload, e *env, trainedReads int64) (float64, error) {
	budget := 0
	if w.Hot {
		budget = e.ds.TotalVectors()
	}
	ls, err := OpenLocalUntrained(e.ds, budget)
	if err != nil {
		return 0, fmt.Errorf("untrained baseline: %w", err)
	}
	defer ls.Close()
	for i := 0; i < w.ReplayBatches; i++ {
		b := e.tr.batch(int64(i))
		vecs, err := ls.Lookup(b.Table, b.IDs)
		if err == nil {
			err = e.orc.check(b.Table, b.IDs, lookupResult{Raw: vecs}, nil)
		}
		if err != nil {
			return 0, fmt.Errorf("untrained baseline: %w", err)
		}
	}
	return ratio(ls.Counters().BlockReads, trainedReads), nil
}

// gcPauses snapshots the runtime's cumulative stop-the-world pause histogram.
func gcPauses() *rtmetrics.Float64Histogram {
	s := []rtmetrics.Sample{{Name: "/gc/pauses:seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		return nil
	}
	h := s[0].Value.Float64Histogram()
	return &rtmetrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
}

// pauseP99US is the p99 pause (its bucket's upper bound) between two
// snapshots; 0 when no collection ran.
func pauseP99US(before, after *rtmetrics.Float64Histogram) float64 {
	if before == nil || after == nil {
		return 0
	}
	var total uint64
	d := make([]uint64, len(after.Counts))
	for i := range d {
		d[i] = after.Counts[i] - before.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	target := (99*total + 99) / 100
	var cum uint64
	for i, c := range d {
		if cum += c; cum >= target {
			return after.Buckets[i+1] * 1e6
		}
	}
	return 0
}

// loaded runs the concurrent closed loop with recording off and reads the
// layers' own counters, and the process's, over it: scheduler batching and
// coalescing only happen with requests in flight together, and compaction
// interference only shows beside foreground traffic.
func (e *env) loaded(d time.Duration, rep *report) {
	st := e.st
	const n = 15
	// A sampler reads the update log's state at window boundaries.
	compactions := make([]int64, n+1)
	var overlayMax int
	var ringMax float64
	stop, done := make(chan struct{}), make(chan struct{})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap0 := heapInuse()
	p0 := gcPauses()
	cpu0, _ := rusage()
	c0 := st.counters()
	compactions[0] = c0.Compactions
	go func() {
		defer close(done)
		tick := time.NewTicker(d / n)
		defer tick.Stop()
		for i := 1; i <= n; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			c := st.counters()
			compactions[i] = c.Compactions
			overlayMax = max(overlayMax, c.OverlayEntries)
			ringMax = max(ringMax, c.RingUtil)
		}
	}()
	samples := e.tr.closedLoop(st.clients, d, nil, nil)
	close(stop)
	<-done
	cd := st.counters().Sub(c0)
	cpu1, _ := rusage()
	cpu := cpu1 - cpu0
	runtime.ReadMemStats(&ms1)
	// Post-GC heap the phase left behind, per operation: about 0 unless
	// something grows with traffic (the samples kept here are ~32 B each).
	rep.set("proc.heap_growth_b_per_op", (float64(heapInuse())-float64(heap0))/float64(len(samples)))

	ws := windows(samples, d/n, n)
	rep.set("e2e.closed_vectors_per_s", windowMedian(ws, func(w windowStat) float64 { return w.VectorsPerS }, hasLookups))
	rep.set("e2e.closed_p99_us", windowMedian(ws, func(w windowStat) float64 { return w.P99US }, hasLookups))
	rep.set("e2e.update_p50_us", windowMedian(ws, func(w windowStat) float64 { return w.UpdP50US }, hasUpdates))
	rep.set("e2e.update_p99_us", windowMedian(ws, func(w windowStat) float64 { return w.UpdP99US }, hasUpdates))

	rep.set("core.hit_ratio", ratio(cd.Hits, cd.Lookups))
	rep.set("core.prefetch_accuracy", ratio(cd.PrefetchHits, cd.PrefetchAdds))
	rep.set("core.effective_bw", ratio((cd.Misses+cd.PrefetchHits)*int64(e.ds.VecBytes), cd.BlockReads*blockBytes))
	rep.set("core.coalesced_reads_per_klookup", 1000*ratio(cd.CoalescedReads, cd.Lookups))
	rep.set("core.delta_hit_share", ratio(cd.DeltaHits, cd.Hits))
	rep.set("core.overlay_entries_max", float64(overlayMax))
	rep.set("core.compactions", float64(cd.Compactions))
	rep.set("iosched.avg_batch", ratio(cd.SchedDeviceReads, cd.SchedBatches))
	rep.set("iosched.coalesced_share", ratio(cd.SchedCoal, cd.SchedSubmitted))
	rep.set("iosched.queue_wait_p50_us", cd.SchedWaitP50US)
	rep.set("iosched.queue_wait_p99_us", cd.SchedWaitP99US)
	rep.set("iosched.device_reads_per_klookup", 1000*ratio(cd.SchedDeviceReads, cd.Lookups))
	rep.set("nvm.ring_utilization_max", ringMax)
	// Block bytes per second of wall clock over the model's peak bandwidth:
	// how much of the modelled device this load would use. Modelled.
	rep.set("nvm.modelled_bw_share", float64(cd.DevBytesRead)/d.Seconds()/e.st.primary().ModelPeakBytesPerS())

	// p99 of the windows in which a compaction finished over the others'.
	var with, without []float64
	for i, w := range ws {
		if w.Lookups == 0 {
			continue
		}
		if compactions[i+1] > compactions[i] {
			with = append(with, w.P99US)
		} else {
			without = append(without, w.P99US)
		}
	}
	if len(with) > 0 && len(without) > 0 {
		rep.set("core.compaction_window_p99_ratio", median(with)/median(without))
	}

	var vectors int
	for _, s := range samples {
		vectors += s.vectors
	}
	rep.set("proc.gc_pause_p99_us", pauseP99US(p0, gcPauses()))
	rep.set("proc.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	rep.set("proc.allocs_per_batch", ratio(int64(ms1.Mallocs-ms0.Mallocs), int64(len(samples))))
	if vectors > 0 {
		rep.set("proc.cpu_s_per_mvectors", cpu/(float64(vectors)/1e6))
	}
}

// timeEach runs fn n times and returns the ascending per-call times in
// microseconds.
func timeEach(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out, nil
}

// driveDirect measures each layer's unit costs by calling its public
// functions directly, below the network seams.
func (e *env) driveDirect(rep *report) error {
	ds, local := e.ds, e.st.primary().Local()
	rng := rand.New(rand.NewSource(ds.Seed))
	nproc := nClients()

	// core: the hit path with no network around it. In-process leased
	// lookups against a store whose DRAM budget holds every vector, so that
	// after two rounds every lookup is a hit whatever the workload's budget.
	hotStore, err := OpenLocalUntrained(ds, ds.TotalVectors())
	if err != nil {
		return fmt.Errorf("direct core: %w", err)
	}
	defer hotStore.Close()
	hot := ds.Batches[:200]
	hotLoop := func(rounds int) (vectors int, err error) {
		for r := 0; r < rounds; r++ {
			for _, b := range hot {
				vecs, release, err := hotStore.LookupLeased(b.Table, b.IDs)
				if err != nil {
					return vectors, err
				}
				vectors += len(vecs)
				release()
			}
		}
		return vectors, nil
	}
	if _, err := hotLoop(2); err != nil {
		return fmt.Errorf("direct core: %w", err)
	}
	const hotRounds = 60
	var ms0, ms1 runtime.MemStats
	hc0 := hotStore.Counters()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	vectors, err := hotLoop(hotRounds)
	if err != nil {
		return fmt.Errorf("direct core: %w", err)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	if hc := hotStore.Counters().Sub(hc0); hc.Hits != hc.Lookups {
		return fmt.Errorf("direct core: hot loop missed: %d hits of %d lookups", hc.Hits, hc.Lookups)
	}
	rep.set("core.hit_ns_per_vector", float64(el.Nanoseconds())/float64(vectors))
	rep.set("core.allocs_per_hit_batch", ratio(int64(ms1.Mallocs-ms0.Mallocs), int64(hotRounds*len(hot))))
	t0 = time.Now()
	var wg sync.WaitGroup
	for g := 0; g < nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hotLoop(hotRounds) //nolint:errcheck // the same loop just succeeded
		}()
	}
	wg.Wait()
	rep.set("core.local_vectors_per_s", float64(nproc*vectors)/time.Since(t0).Seconds())

	// nvm: wall-clock block reads straight from the device, idle and with
	// one reader per core (the device serialises part of every read).
	buf := make([]byte, blockBytes)
	nb := local.NumBlocks()
	us, err := timeEach(3000, func(int) error { return local.ReadBlock(rng.Intn(nb), buf) })
	if err != nil {
		return fmt.Errorf("direct nvm: %w", err)
	}
	rep.set("nvm.read_block_wall_p50_us", percentile(us, 0.5))
	rep.set("nvm.read_block_wall_p99_us", percentile(us, 0.99))
	const contended = 3000
	t0 = time.Now()
	for g := 0; g < nproc; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r, b := rand.New(rand.NewSource(seed)), make([]byte, blockBytes)
			for i := 0; i < contended; i++ {
				local.ReadBlock(r.Intn(nb), b) //nolint:errcheck // the same reads just succeeded
			}
		}(ds.Seed + int64(g))
	}
	wg.Wait()
	rep.set("nvm.read_block_contended_ns", float64(time.Since(t0).Nanoseconds())/contended)

	// iosched: eight random blocks through a private scheduler.
	read8, closeSched, err := local.NewReadScheduler()
	if err != nil {
		return fmt.Errorf("direct iosched: %w", err)
	}
	buf8, blocks := make([]byte, 8*blockBytes), make([]int, 8)
	us, err = timeEach(500, func(int) error {
		for i := range blocks {
			blocks[i] = rng.Intn(nb)
		}
		return read8(blocks, buf8)
	})
	closeSched()
	if err != nil {
		return fmt.Errorf("direct iosched: %w", err)
	}
	rep.set("iosched.read8_wall_us", percentile(us, 0.5))

	// vcache: a bare cache of the workload's capacity, probed and churned.
	capacity := e.st.primary().Counters().CacheUsed
	vc := NewVCache(capacity, ds.VecBytes, DefaultShards())
	payload := make([]byte, ds.VecBytes)
	for id := 0; id < capacity; id++ {
		vc.Add(uint32(id), payload)
	}
	const cacheOps = 300000
	var sink byte
	t0 = time.Now()
	for i := 0; i < cacheOps; i++ {
		vc.Get(uint32(rng.Intn(capacity)), func(p []byte, _ bool) { sink ^= p[0] })
	}
	rep.set("vcache.get_ns", float64(time.Since(t0).Nanoseconds())/cacheOps)
	t0 = time.Now()
	for i := 0; i < cacheOps; i++ {
		vc.Add(uint32(capacity+i), payload)
	}
	rep.set("vcache.add_evict_ns", float64(time.Since(t0).Nanoseconds())/cacheOps)
	bpv, util := vc.Footprint()
	rep.set("vcache.bytes_per_vector", bpv)
	rep.set("vcache.arena_utilization", util)

	// fp16: the bulk converters on one vector.
	f32, raw := make([]float32, ds.Dim), append([]byte(nil), e.orc.original(0, 0)...)
	const fpOps = 300000
	t0 = time.Now()
	for i := 0; i < fpOps; i++ {
		FP16Decode(f32, raw)
	}
	rep.set("fp16.decode_ns_per_vector", float64(time.Since(t0).Nanoseconds())/fpOps)
	t0 = time.Now()
	for i := 0; i < fpOps; i++ {
		raw = FP16Encode(raw[:0], f32)
	}
	rep.set("fp16.encode_ns_per_vector", float64(time.Since(t0).Nanoseconds())/fpOps)
	_ = sink

	// wire: the same batches against a backend that returns fixed bytes.
	if err := e.driveStub(rep); err != nil {
		return fmt.Errorf("direct wire: %w", err)
	}

	// shp, sim, mrc: the training stages of the first table, called the way
	// Train composes them.
	stages, err := TimeTrainStages(ds, 0, max(capacity/len(ds.Names), 64))
	if err != nil {
		return fmt.Errorf("direct train stages: %w", err)
	}
	rep.set("shp.partition_s", stages.PartitionS)
	rep.set("sim.tune_threshold_s", stages.TuneS)
	rep.set("mrc.hrc_s", stages.HRCS)
	return nil
}

// driveStub measures the protocol with no store behind it: round trip of one
// client, throughput of one client per core, and exact bytes per vector.
func (e *env) driveStub(rep *report) error {
	stub, err := StartStub(e.ds.Dim)
	if err != nil {
		return err
	}
	defer stub.Close()
	var clients []*bwpClient
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < nClients(); i++ {
		c, err := DialBWP(stub.Addr, e.ds.Names)
		if err != nil {
			return err
		}
		clients = append(clients, c)
	}
	vectors := 0
	us, err := timeEach(3000, func(i int) error {
		b := e.tr.batch(int64(i))
		res, err := clients[0].Lookup(b.Table, b.IDs)
		vectors += res.len()
		return err
	})
	if err != nil {
		return err
	}
	rep.set("wire.stub_rtt_p50_us", percentile(us, 0.5))
	rep.set("wire.bytes_per_vector", float64(clients[0].WireBytes())/float64(vectors))

	const perClient = 6000
	var wg sync.WaitGroup
	counts := make([]int, len(clients))
	t0 := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *bwpClient) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				b := e.tr.batch(int64(ci*perClient + i))
				if res, err := c.Lookup(b.Table, b.IDs); err == nil {
					counts[ci] += res.len()
				}
			}
		}(ci, c)
	}
	wg.Wait()
	el := time.Since(t0).Seconds()
	total := 0
	for _, n := range counts {
		total += n
	}
	rep.set("wire.stub_vectors_per_s", float64(total)/el)
	return nil
}
