package server

import (
	"log"
	"net/http"
	"strconv"
	"time"

	"bandana/internal/core"
	"bandana/internal/metrics"
	"bandana/internal/wire"
)

// SetSlowRequestThreshold arms (or, with 0, disarms) slow-request logging:
// every request slower than d emits one structured log line with the full
// per-stage breakdown. Emission is limited to slowLogRate lines per second;
// beyond that, slow requests are counted and the next emitted line carries
// the suppressed count, so an overloaded server logs a sample instead of
// amplifying its own overload. Safe to call at any time.
func (s *Server) SetSlowRequestThreshold(d time.Duration) {
	s.slowNS.Store(int64(d))
}

// slowLogRate is the sustained slow-request log lines per second;
// slowLogBurst is the bucket size (how many may emit back to back).
const (
	slowLogRate  = 10
	slowLogBurst = 20
)

// slowLogAllow is a token-bucket admission check for one slow-request line.
func (s *Server) slowLogAllow(now time.Time) bool {
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	if s.slowLast.IsZero() {
		s.slowTokens = slowLogBurst
	} else {
		s.slowTokens += now.Sub(s.slowLast).Seconds() * slowLogRate
		if s.slowTokens > slowLogBurst {
			s.slowTokens = slowLogBurst
		}
	}
	s.slowLast = now
	if s.slowTokens < 1 {
		return false
	}
	s.slowTokens--
	return true
}

// logSlowRequest emits one line for a request that crossed the slow
// threshold. rt may be nil (the threshold was armed mid-request); the stage
// fields then read as zero.
func (s *Server) logSlowRequest(r *http.Request, status int, elapsed time.Duration, rt *requestTrace) {
	if !s.slowLogAllow(time.Now()) {
		s.slowSuppressed.Add(1)
		return
	}
	suppressed := s.slowSuppressed.Swap(0)
	var tr requestTrace
	if rt != nil {
		tr = *rt
	}
	log.Printf("slow-request method=%s path=%s status=%d dur_ms=%.2f"+
		" probe_us=%.1f queue_wait_us=%.1f service_us=%.1f decode_us=%.1f serialize_us=%.1f"+
		" lookups=%d hits=%d misses=%d block_reads=%d suppressed=%d",
		r.Method, r.URL.Path, status, float64(elapsed)/1e6,
		tr.ProbeUS, tr.QueueWaitUS, tr.ServiceUS, tr.DecodeUS, tr.SerializeUS,
		tr.Lookups, tr.Hits, tr.Misses, tr.BlockReads, suppressed)
}

// handleMetrics serves the Prometheus text exposition of the node's
// registry, and handleStats the same registry as JSON (a metrics.View).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.registry(s.store(r)).Handler().ServeHTTP(w, r)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.registry(s.store(r)).WriteJSON(w) // headers are out: nothing left to report to
}

// registry renders one scrape of the request's store (so metrics follow a
// SwapStore) and of the server around it. Every source is read once, before
// any family is built: the families of a scrape agree with each other (a
// table's hits plus misses are its lookups), and a scrape costs one of each
// stats call and one stop-the-world runtime read however many families use
// them. Naming follows prometheus conventions:
// bandana_<subsystem>_<name>_<unit>, cumulative counters end in _total,
// histograms render as summaries (see metrics.SummarySamples).
func (s *Server) registry(store *core.Store) *metrics.Registry {
	tables := store.Stats()
	stages := store.StageLatency()
	dram := store.DRAM()
	dev := store.DeviceStats()
	sched, _ := store.IOSchedStats()
	ulog := store.UpdateLogStats()
	adapt := store.AdaptationStats()
	ws := s.wire.Stats()
	proc := metrics.ReadRuntime(s.start)

	r := metrics.NewRegistry()
	value := func(name, typ, help string, v float64) {
		r.Register(name, typ, help, metrics.CounterSample(nil, v))
	}
	perTable := func(name, typ, help string, f func(core.TableStats) float64) {
		out := make([]metrics.Sample, len(tables))
		for i, ts := range tables {
			out[i] = metrics.Sample{Labels: metrics.L("table", ts.Name), Value: f(ts)}
		}
		r.Register(name, typ, help, out)
	}
	perOpcode := func(name, typ, help string, f func(op string, os wire.OpStats) []metrics.Sample) {
		var out []metrics.Sample
		for _, op := range wire.OpNames {
			if os, ok := ws.Ops[op]; ok {
				out = append(out, f(op, os)...)
			}
		}
		r.Register(name, typ, help, out)
	}

	// HTTP layer.
	value("bandana_http_requests_total", "counter", "HTTP requests served.", float64(s.requests.Value()))
	value("bandana_http_errors_total", "counter", "HTTP responses with status >= 400.", float64(s.errors.Value()))
	value("bandana_http_inflight_requests", "gauge", "HTTP requests currently being served.", float64(s.inflight.Value()))
	r.Register("bandana_http_request_duration_us", "summary", "End-to-end HTTP request latency (microseconds).",
		metrics.SummarySamples(nil, s.latency.Snapshot()))

	// Stage decomposition: the store's stages, over all its tables, plus
	// the server-side serialize stage. One family; the stage label selects
	// the component.
	stageSnaps := []struct {
		name  string
		store metrics.Snapshot
		table func(core.TableStats) metrics.Snapshot
	}{
		{"cache_probe", stages.Probe, func(ts core.TableStats) metrics.Snapshot { return ts.ProbeLatency }},
		{"queue_wait", stages.QueueWait, func(ts core.TableStats) metrics.Snapshot { return ts.QueueWaitLatency }},
		{"device_service", stages.Service, func(ts core.TableStats) metrics.Snapshot { return ts.Latency }},
		{"decode", stages.Decode, func(ts core.TableStats) metrics.Snapshot { return ts.DecodeLatency }},
	}
	var stageSamples, tableStageSamples []metrics.Sample
	for _, st := range stageSnaps {
		stageSamples = append(stageSamples, metrics.SummarySamples(metrics.L("stage", st.name), st.store)...)
		for _, ts := range tables {
			snap, labels := st.table(ts), metrics.L("table", ts.Name, "stage", st.name)
			tableStageSamples = append(tableStageSamples,
				metrics.Sample{Suffix: "_sum", Labels: labels, Value: snap.Mean * float64(snap.Count)},
				metrics.Sample{Suffix: "_count", Labels: labels, Value: float64(snap.Count)})
		}
	}
	r.Register("bandana_stage_duration_us", "summary",
		"Per-stage serving latency decomposition over all tables (microseconds): cache_probe (DRAM probe, one sample per batch: microseconds per id probed; a batch of one id is sampled 1 in 64), queue_wait (I/O scheduler queue; none when the blocks are memory and read in place), device_service (NVM block read: wall time, less the queue wait), decode (fp16 decode), serialize (JSON response encode).",
		append(stageSamples, metrics.SummarySamples(metrics.L("stage", "serialize"), s.serialize.Snapshot())...))
	r.Register("bandana_table_stage_duration_us", "summary",
		"Each table's own share of bandana_stage_duration_us: the sum and count of its samples per stage (the quantiles are the store's, over every table).",
		tableStageSamples)

	// Per-table serving counters and cache gauges.
	perTable("bandana_table_lookups_total", "counter", "Vector lookups per table.",
		func(ts core.TableStats) float64 { return float64(ts.Lookups) })
	perTable("bandana_table_hits_total", "counter", "DRAM cache (and delta overlay) hits per table.",
		func(ts core.TableStats) float64 { return float64(ts.Hits) })
	perTable("bandana_table_delta_hits_total", "counter", "Hits served from the delta overlay (updated vectors not yet compacted) per table, a subset of hits_total.",
		func(ts core.TableStats) float64 { return float64(ts.DeltaHits) })
	perTable("bandana_table_misses_total", "counter", "Lookups that needed an NVM read per table.",
		func(ts core.TableStats) float64 { return float64(ts.Misses) })
	perTable("bandana_table_block_reads_total", "counter", "NVM block reads per table.",
		func(ts core.TableStats) float64 { return float64(ts.BlockReads) })
	perTable("bandana_table_coalesced_reads_total", "counter", "Misses served by another miss's device read per table (I/O scheduler singleflight): the lookup missed, the device did not read a block.",
		func(ts core.TableStats) float64 { return float64(ts.CoalescedReads) })
	perTable("bandana_table_prefetch_hits_total", "counter", "Hits served by a prefetched cache entry per table.",
		func(ts core.TableStats) float64 { return float64(ts.PrefetchHits) })
	perTable("bandana_table_prefetch_adds_total", "counter", "Prefetched vectors admitted to the cache per table (prefetch_hits_total over this is the prefetch accuracy).",
		func(ts core.TableStats) float64 { return float64(ts.PrefetchAdds) })
	perTable("bandana_table_probation_fills_total", "counter", "Requested vectors cached on probation (head of the last queue segment) instead of at the MRU end, because their training count is below the table's demand threshold.",
		func(ts core.TableStats) float64 { return float64(ts.ProbationFills) })
	perTable("bandana_table_effective_bandwidth", "gauge", "Fraction of NVM-read bytes delivered to the application per table: (misses + prefetch hits) x vector bytes over block reads x block bytes.",
		func(ts core.TableStats) float64 { return ts.EffectiveBandwidth })
	perTable("bandana_table_predicted_hit_ratio", "gauge", "Hit ratio the miniature cache predicted for the installed admission thresholds per table (0 before any tuning); compare with hits_total/lookups_total.",
		func(ts core.TableStats) float64 { return ts.PredictedHitRate })
	perTable("bandana_table_predicted_lookups_per_block_read", "gauge", "Lookups per NVM block read the miniature cache predicted for the installed admission thresholds per table (0 before any tuning); compare with lookups_total/block_reads_total.",
		func(ts core.TableStats) float64 { return ts.PredictedLookupsPerBlockRead })
	perTable("bandana_table_pinned_vectors", "gauge", "Vectors the miniature caches pinned per table: the cache never evicts the table's hottest training ids, and the thresholds serve every other id in the room they leave (0 when the table is not pinned). This counts the pin verdict only: a cache that covers its table is pinned whole without one, shows 0 here, and bandana_table_cache_vectors at least the table's vectors.",
		func(ts core.TableStats) float64 { return float64(ts.PinnedVectors) })
	var policies []metrics.Sample
	for _, ts := range tables {
		if ts.Policy != "" {
			policies = append(policies, metrics.Sample{Labels: metrics.L("table", ts.Name, "policy", ts.Policy), Value: 1})
		}
	}
	r.Register("bandana_table_policy_info", "gauge", "Admission policy installed per table (value is always 1; no sample while prefetching is off and no demand gate is set).", policies)
	perTable("bandana_table_overlay_entries", "gauge", "Updated vectors served from the DRAM overlay per table.",
		func(ts core.TableStats) float64 { return float64(ts.OverlayEntries) })
	perTable("bandana_table_cache_vectors", "gauge", "Configured cache capacity (vectors) per table.",
		func(ts core.TableStats) float64 { return float64(ts.CacheVectors) })
	perTable("bandana_table_cache_used", "gauge", "Cached vectors currently resident per table.",
		func(ts core.TableStats) float64 { return float64(ts.CacheUsed) })
	perTable("bandana_table_cache_shards", "gauge", "Lock shards of the cache per table.",
		func(ts core.TableStats) float64 { return float64(ts.CacheShards) })
	perTable("bandana_table_cache_bytes_resident", "gauge", "Payload bytes resident in the cache per table (byte accounting, not entry counts).",
		func(ts core.TableStats) float64 { return float64(ts.CacheBytesResident) })
	perTable("bandana_table_cache_arena_bytes", "gauge", "Allocated cache slab-arena bytes per table.",
		func(ts core.TableStats) float64 { return float64(ts.CacheArenaBytes) })
	perTable("bandana_table_cache_arena_utilization", "gauge", "Resident payload bytes over allocated arena bytes per table.",
		func(ts core.TableStats) float64 { return ts.CacheArenaUtilization })
	perTable("bandana_table_cache_slabs", "gauge", "Allocated cache arena slabs per table.",
		func(ts core.TableStats) float64 { return float64(ts.CacheSlabs) })
	perTable("bandana_table_cache_free_slots", "gauge", "Cache arena slots ready for reuse per table.",
		func(ts core.TableStats) float64 { return float64(ts.CacheFreeSlots) })
	perTable("bandana_table_cache_limbo_slots", "gauge", "Evicted cache arena slots waiting for reader leases to end per table; steady growth means leases are not released.",
		func(ts core.TableStats) float64 { return float64(ts.CacheLimboSlots) })
	var tableDRAM []metrics.Sample
	for _, ts := range tables {
		for _, c := range []struct {
			name  string
			bytes int64
		}{
			{"layout", ts.DRAM.Layout}, {"admit_bits", ts.DRAM.AdmitBits}, {"overlay", ts.DRAM.Overlay},
			{"cache_arena", ts.DRAM.CacheArena}, {"cache_index", ts.DRAM.CacheIndex}, {"recorder", ts.DRAM.Recorder},
			{"metrics", ts.DRAM.Metrics},
		} {
			tableDRAM = append(tableDRAM, metrics.Sample{Labels: metrics.L("table", ts.Name, "component", c.name), Value: float64(c.bytes)})
		}
	}
	r.Register("bandana_table_dram_bytes", "gauge", "Heap a table keeps resident, by component (layout — the placement order and its inverse for the trained head, and a bitset with a rank per 64 ids implying the untrained tail —, admit_bits, overlay, cache_arena, cache_index — the recency lists' records and probe tables, plus a pinned cache's slot word per pinned id and rank directory or a whole-table cache's slot words and flag bitset —, recorder, metrics), computed from lengths at scrape time; the vectors themselves are on the device.", tableDRAM)
	r.Register("bandana_store_dram_bytes", "gauge", "Heap the store keeps resident beside its tables' bandana_table_dram_bytes, by component (metrics: the stage, device and I/O scheduler latency histograms; blocks: the data itself when the backend is mem, which keeps every block in the heap, 0 on file).",
		[]metrics.Sample{
			{Labels: metrics.L("component", "metrics"), Value: float64(dram.Metrics)},
			{Labels: metrics.L("component", "blocks"), Value: float64(dram.Blocks)},
		})

	// NVM device + block-store backend.
	deviceLabels := metrics.L("backend", dev.Store.Backend, "direct_io", strconv.FormatBool(dev.Store.DirectIO))
	if dev.Store.ReadPath != "" { // file backend: "mmap" or "pread"
		deviceLabels = append(deviceLabels, metrics.Label{Key: "read_path", Value: dev.Store.ReadPath})
	}
	r.Register("bandana_device_info", "gauge", "Device backend descriptor (value is always 1).", metrics.CounterSample(deviceLabels, 1))
	value("bandana_device_blocks_read_total", "counter", "NVM blocks read.", float64(dev.BlocksRead))
	value("bandana_device_blocks_written_total", "counter", "NVM blocks written.", float64(dev.BlocksWritten))
	value("bandana_device_bytes_read_total", "counter", "Bytes read from NVM.", float64(dev.BytesRead))
	value("bandana_device_reads_submitted_total", "counter", "Read intents submitted to the device layer.", float64(dev.ReadsSubmitted))
	value("bandana_device_read_batches_total", "counter", "Device read dispatches.", float64(dev.ReadBatches))
	value("bandana_device_coalesced_reads_total", "counter", "Reads coalesced into another read's device I/O.", float64(dev.CoalescedReads))
	value("bandana_device_queue_depth_max", "gauge", "High-water mark of reads outstanding at the device at once.", float64(dev.MaxQueueDepth))
	value("bandana_device_data_writes_total", "counter", "Single-block in-place writes of the file backend: compaction's read-modify-writes (bulk installs are not counted).", float64(dev.Store.DataWrites))
	value("bandana_device_flushes_total", "counter", "Block-store flushes.", float64(dev.Store.Flushes))
	value("bandana_device_drive_writes", "gauge", "Cumulative full-drive writes (wear).", dev.DriveWrites)
	value("bandana_device_endurance_dwpd", "gauge", "Projected drive writes per day.", dev.EnduranceDWPD)

	// I/O scheduler.
	value("bandana_iosched_queue_depth", "gauge", "Issue slots: the device queue depth the scheduler targets (0 without a scheduler).", float64(sched.TargetQueueDepth))
	value("bandana_iosched_demand_reads_total", "counter", "Reads submitted with the demand label.", float64(sched.DemandReads))
	value("bandana_iosched_prefetch_reads_total", "counter", "Reads submitted with the prefetch label.", float64(sched.PrefetchReads))
	value("bandana_iosched_device_reads_total", "counter", "Reads that reached the device.", float64(sched.DeviceReads))
	value("bandana_iosched_batches_total", "counter", "Device calls.", float64(sched.Batches))
	value("bandana_iosched_batch_size_max", "gauge", "Most reads one device call carried.", float64(sched.MaxBatchSize))
	value("bandana_iosched_coalesced_total", "counter", "Reads served by another read's device I/O.", float64(sched.Coalesced))
	value("bandana_iosched_coalesced_late_total", "counter", "Coalesced reads that attached after the device read was issued (a subset of coalesced_total).", float64(sched.CoalescedLate))
	value("bandana_iosched_rejected_total", "counter", "Reads refused because the scheduler was closed.", float64(sched.Rejected))
	value("bandana_iosched_queued_reads", "gauge", "Reads waiting for an issue slot.", float64(sched.QueuedNow))
	value("bandana_iosched_inflight", "gauge", "Issue slots held: callers with device reads in flight, the realised queue depth in calls.", float64(sched.InFlight))
	value("bandana_iosched_inflight_max", "gauge", "High-water mark of issue slots held at once.", float64(sched.MaxInFlight))
	r.Register("bandana_iosched_queue_wait_us", "summary", "Per-read wait from submission to an issue slot (microseconds).",
		metrics.SummarySamples(nil, sched.QueueWait))
	r.Register("bandana_iosched_service_us", "summary", "Per-device-call wall time of scheduled reads (microseconds).",
		metrics.SummarySamples(nil, sched.Service))

	// Update log (delta path).
	value("bandana_updatelog_records", "gauge", "Update records retained in the in-memory window.", float64(ulog.Records))
	value("bandana_updatelog_mem_bytes", "gauge", "Bytes the in-memory record window holds.", float64(ulog.MemBytes))
	value("bandana_updatelog_base_seq", "gauge", "Lowest seq a follower can tail from (with last_seq, the window a follower tails instead of a full sync).", float64(ulog.BaseSeq))
	value("bandana_updatelog_last_seq", "gauge", "Seq of the newest logged update.", float64(ulog.LastSeq))
	value("bandana_updatelog_appends_total", "counter", "Updates appended to the delta log.", float64(ulog.Appends))
	value("bandana_updatelog_bytes_appended_total", "counter", "Framed bytes appended to the delta log.", float64(ulog.BytesAppended))
	value("bandana_updatelog_compactions_total", "counter", "Overlay folds into the block image.", float64(ulog.Compactions))
	value("bandana_updatelog_compact_failures_total", "counter", "Background compactions that returned an error.", float64(ulog.CompactFailures))
	value("bandana_updatelog_invalidations_total", "counter", "Structural mutations (layout installs, adaptation epochs) that reset the record window.", float64(ulog.Invalidations))
	value("bandana_updatelog_fallback_writes_total", "counter", "Updates whose log append failed: they committed to the overlay only, volatile until the next compaction.", float64(ulog.FallbackWrites))
	value("bandana_updatelog_recovered_records", "gauge", "Update records the last open replayed over the block image.", float64(ulog.RecoveredRecords))
	value("bandana_updatelog_overlay_entries", "gauge", "Updated vectors served from the DRAM overlay, not yet compacted into the block image.", float64(ulog.OverlayEntries))

	// Wire (bwp) listener.
	value("bandana_wire_enabled", "gauge", "1 once ServeWire is listening.", b2f(s.wireEnabled.Load()))
	value("bandana_wire_conns_total", "counter", "bwp connections accepted.", float64(ws.ConnsTotal))
	value("bandana_wire_conns_active", "gauge", "bwp connections currently open.", float64(ws.ConnsActive))
	value("bandana_wire_buffer_bytes", "gauge", "Heap the open bwp connections hold in buffers: one 4 KiB read buffer each; responses are written from their own frames.", float64(ws.BufferBytes))
	value("bandana_wire_handlers", "gauge", "bwp request handler goroutines alive, idle ones included: each connection keeps the handlers it starts until it closes.", float64(ws.Handlers))
	value("bandana_wire_handlers_max", "gauge", "High-water mark of bandana_wire_handlers.", float64(ws.HandlersMax))
	value("bandana_wire_error_frames_total", "counter", "bwp error frames sent, frames rejected before reaching an opcode (bad CRC, unsupported flags) included.", float64(ws.Errors))
	perOpcode("bandana_wire_requests_total", "counter", "bwp request frames, by opcode.", func(op string, os wire.OpStats) []metrics.Sample {
		return metrics.CounterSample(metrics.L("opcode", op), float64(os.Requests))
	})
	perOpcode("bandana_wire_errors_total", "counter", "bwp error frames sent, by opcode.", func(op string, os wire.OpStats) []metrics.Sample {
		return metrics.CounterSample(metrics.L("opcode", op), float64(os.Errors))
	})
	perOpcode("bandana_wire_request_duration_us", "summary", "bwp request handle latency by opcode (microseconds).", func(op string, os wire.OpStats) []metrics.Sample {
		return metrics.SummarySamples(metrics.L("opcode", op), os.Latency)
	})

	// Store / replication.
	value("bandana_store_read_only", "gauge", "1 on a replica serving a bootstrapped snapshot.", b2f(store.ReadOnly()))
	value("bandana_store_snapshot_seq", "gauge", "Snapshot sequence of the servable image.", float64(store.SnapshotSeq()))
	value("bandana_store_swaps_total", "counter", "SwapStore calls (replica re-syncs).", float64(s.swaps.Value()))
	value("bandana_store_recovered_migration", "gauge", "1 when opening the store redid a layout install the previous process died in.", b2f(store.RecoveredMigration()))
	var dataDir []metrics.Sample
	if dir := store.DataDir(); dir != "" {
		dataDir = metrics.CounterSample(metrics.L("data_dir", dir), 1)
	}
	r.Register("bandana_store_info", "gauge", "Persistence directory of a file-backed store (value is always 1; no sample on the mem backend).", dataDir)

	// Layout installs (Train, LoadState, adaptation re-layout).
	perTable("bandana_layout_installs_total", "counter", "Completed layout installs per table.",
		func(ts core.TableStats) float64 { return float64(ts.LayoutInstalls) })
	value("bandana_layout_install_seconds", "gauge", "Duration of the last layout install, from staging the rendered image to clearing the migration record (seconds).", store.LastLayoutInstall().Seconds())

	// Adaptation engine (the rest of core.AdaptationStats answers POST
	// /v1/adapt start and stop).
	value("bandana_adaptation_enabled", "gauge", "1 while the adaptation engine is started (its recorders installed).", b2f(adapt.Enabled))
	value("bandana_adaptation_epochs_total", "counter", "Completed adaptation epochs.", float64(adapt.EpochsCompleted))
	value("bandana_adaptation_relayouts_total", "counter", "Block-layout rewrites applied by adaptation.", float64(adapt.Relayouts))
	value("bandana_adaptation_last_epoch_duration_ms", "gauge", "Duration of the last adaptation epoch (ms).", float64(adapt.LastEpochDuration)/1e6)

	// Process runtime.
	value("bandana_runtime_goroutines", "gauge", "Live goroutines.", float64(proc.Goroutines))
	value("bandana_runtime_heap_bytes", "gauge", "Heap bytes in use.", float64(proc.HeapBytes))
	value("bandana_runtime_heap_objects", "gauge", "Heap objects allocated and not yet freed.", float64(proc.HeapObjects))
	value("bandana_runtime_gc_cycles_total", "counter", "Completed GC cycles.", float64(proc.GCCycles))
	value("bandana_runtime_gc_pause_p99_us", "gauge", "Process-lifetime GC pause p99 (microseconds).", proc.GCPauseP99US)
	value("bandana_runtime_uptime_seconds", "gauge", "Seconds since the server started.", proc.UptimeSeconds)

	// Slow-request log health: how many slow requests were observed but not
	// logged because the token bucket was dry.
	value("bandana_slow_requests_suppressed", "gauge", "Slow requests awaiting a log slot (resets when a line is emitted).", float64(s.slowSuppressed.Load()))
	return r
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
