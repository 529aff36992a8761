package server

import (
	"log"
	"net/http"
	"time"

	"bandana/internal/core"
	"bandana/internal/iosched"
	"bandana/internal/metrics"
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

// handleMetrics serves the Prometheus text exposition. The registry is built
// on first scrape; its gather closures read the *current* store (and wire
// listener) at scrape time, so metrics follow a SwapStore.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.registryOnce.Do(func() { s.registry = s.buildRegistry() })
	s.registry.Handler().ServeHTTP(w, r)
}

// scrapeStore pins and returns the currently served store for one gather
// call. The ref is released immediately: gather functions read counters, and
// the counters' owners outlive the read (a swapped-out store is closed only
// after its in-flight requests drain, and a scrape holds no store across
// gathers).
func (s *Server) scrapeStore() *core.Store {
	ref := s.acquireRef()
	defer ref.release()
	return ref.store
}

// buildRegistry wires every stats section into one Prometheus registry.
// Naming follows prometheus conventions: bandana_<subsystem>_<name>_<unit>,
// cumulative counters end in _total, histograms render as summaries with
// quantile/0.5/0.9/0.99/0.999 plus _sum/_count.
func (s *Server) buildRegistry() *metrics.Registry {
	r := metrics.NewRegistry()

	// HTTP layer.
	r.Register("bandana_http_requests_total", "counter", "HTTP requests served.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.requests.Value()))
	})
	r.Register("bandana_http_errors_total", "counter", "HTTP responses with status >= 400.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.errors.Value()))
	})
	r.Register("bandana_http_inflight_requests", "gauge", "HTTP requests currently being served.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.inflight.Value()))
	})
	r.Register("bandana_http_request_duration_us", "summary", "End-to-end HTTP request latency (microseconds).", func() []metrics.Sample {
		return metrics.SummarySamples(nil, s.latency.Snapshot())
	})

	// Stage decomposition: the store's stages, over all its tables, plus
	// the server-side serialize stage. One family; the stage label selects
	// the component.
	r.Register("bandana_stage_duration_us", "summary",
		"Per-stage serving latency decomposition over all tables (microseconds): cache_probe (DRAM probe, one sample per batch: microseconds per id probed; a batch of one id is sampled 1 in 64), queue_wait (I/O scheduler queue; none when the blocks are memory and read in place), device_service (NVM block read: wall time, less the queue wait), decode (fp16 decode), serialize (JSON response encode).",
		func() []metrics.Sample {
			st := s.scrapeStore().StageLatency()
			var out []metrics.Sample
			out = append(out, metrics.SummarySamples(metrics.L("stage", "cache_probe"), st.Probe)...)
			out = append(out, metrics.SummarySamples(metrics.L("stage", "queue_wait"), st.QueueWait)...)
			out = append(out, metrics.SummarySamples(metrics.L("stage", "device_service"), st.Service)...)
			out = append(out, metrics.SummarySamples(metrics.L("stage", "decode"), st.Decode)...)
			out = append(out, metrics.SummarySamples(metrics.L("stage", "serialize"), s.serialize.Snapshot())...)
			return out
		})

	// Per-table serving counters and cache gauges.
	perTable := func(f func(core.TableStats) float64) metrics.GatherFunc {
		return func() []metrics.Sample {
			stats := s.scrapeStore().Stats()
			out := make([]metrics.Sample, 0, len(stats))
			for _, ts := range stats {
				out = append(out, metrics.Sample{Labels: metrics.L("table", ts.Name), Value: f(ts)})
			}
			return out
		}
	}
	r.Register("bandana_table_lookups_total", "counter", "Vector lookups per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.Lookups) }))
	r.Register("bandana_table_hits_total", "counter", "DRAM cache (and delta overlay) hits per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.Hits) }))
	r.Register("bandana_table_misses_total", "counter", "Lookups that needed an NVM read per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.Misses) }))
	r.Register("bandana_table_block_reads_total", "counter", "NVM block reads per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.BlockReads) }))
	r.Register("bandana_table_prefetch_hits_total", "counter", "Hits served by a prefetched cache entry per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.PrefetchHits) }))
	r.Register("bandana_table_prefetch_adds_total", "counter", "Prefetched vectors admitted to the cache per table (prefetch_hits_total over this is the prefetch accuracy).",
		perTable(func(ts core.TableStats) float64 { return float64(ts.PrefetchAdds) }))
	r.Register("bandana_table_probation_fills_total", "counter", "Requested vectors cached on probation (head of the last queue segment) instead of at the MRU end, because their training count is below the table's demand threshold.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.ProbationFills) }))
	r.Register("bandana_table_effective_bandwidth", "gauge", "Fraction of NVM-read bytes delivered to the application per table: (misses + prefetch hits) x vector bytes over block reads x block bytes.",
		perTable(func(ts core.TableStats) float64 { return ts.EffectiveBandwidth }))
	r.Register("bandana_table_predicted_hit_ratio", "gauge", "Hit ratio the miniature cache predicted for the installed admission thresholds per table (0 before any tuning); compare with hits_total/lookups_total.",
		perTable(func(ts core.TableStats) float64 { return ts.PredictedHitRate }))
	r.Register("bandana_table_predicted_lookups_per_block_read", "gauge", "Lookups per NVM block read the miniature cache predicted for the installed admission thresholds per table (0 before any tuning); compare with lookups_total/block_reads_total.",
		perTable(func(ts core.TableStats) float64 { return ts.PredictedLookupsPerBlockRead }))
	r.Register("bandana_table_cache_vectors", "gauge", "Configured cache capacity (vectors) per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.CacheVectors) }))
	r.Register("bandana_table_cache_used", "gauge", "Cached vectors currently resident per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.CacheUsed) }))
	r.Register("bandana_table_cache_bytes_resident", "gauge", "Payload bytes resident in the cache per table (byte accounting, not entry counts).",
		perTable(func(ts core.TableStats) float64 { return float64(ts.CacheBytesResident) }))
	r.Register("bandana_table_cache_arena_bytes", "gauge", "Allocated cache slab-arena bytes per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.CacheArenaBytes) }))
	r.Register("bandana_table_cache_arena_utilization", "gauge", "Resident payload bytes over allocated arena bytes per table.",
		perTable(func(ts core.TableStats) float64 { return ts.CacheArenaUtilization }))
	r.Register("bandana_table_cache_slabs", "gauge", "Allocated cache arena slabs per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.CacheSlabs) }))
	r.Register("bandana_table_cache_free_slots", "gauge", "Cache arena slots ready for reuse per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.CacheFreeSlots) }))
	r.Register("bandana_table_cache_limbo_slots", "gauge", "Evicted cache arena slots waiting for reader leases to end per table; steady growth means leases are not released.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.CacheLimboSlots) }))
	r.Register("bandana_table_dram_bytes", "gauge", "Heap a table keeps resident, by component (layout, admit_bits, overlay, cache_arena, cache_index, recorder, metrics), computed from lengths at scrape time; the vectors themselves are on the device.",
		func() []metrics.Sample {
			var out []metrics.Sample
			for _, ts := range s.scrapeStore().Stats() {
				for _, c := range []struct {
					name  string
					bytes int64
				}{
					{"layout", ts.DRAM.Layout}, {"admit_bits", ts.DRAM.AdmitBits}, {"overlay", ts.DRAM.Overlay},
					{"cache_arena", ts.DRAM.CacheArena}, {"cache_index", ts.DRAM.CacheIndex}, {"recorder", ts.DRAM.Recorder},
					{"metrics", ts.DRAM.Metrics},
				} {
					out = append(out, metrics.Sample{Labels: metrics.L("table", ts.Name, "component", c.name), Value: float64(c.bytes)})
				}
			}
			return out
		})
	r.Register("bandana_store_dram_bytes", "gauge", "Heap the store keeps resident beside its tables' bandana_table_dram_bytes, by component (metrics: the stage, device and I/O scheduler latency histograms; blocks: the data itself when the backend is mem, which keeps every block in the heap, 0 on file).",
		func() []metrics.Sample {
			d := s.scrapeStore().DRAM()
			return []metrics.Sample{
				{Labels: metrics.L("component", "metrics"), Value: float64(d.Metrics)},
				{Labels: metrics.L("component", "blocks"), Value: float64(d.Blocks)},
			}
		})

	// NVM device + block-store backend.
	r.Register("bandana_device_info", "gauge", "Device backend descriptor (value is always 1).", func() []metrics.Sample {
		dev := s.scrapeStore().DeviceStats()
		direct := "false"
		if dev.Store.DirectIO {
			direct = "true"
		}
		labels := metrics.L("backend", dev.Store.Backend, "direct_io", direct)
		if dev.Store.ReadPath != "" { // file backend: "mmap" or "pread"
			labels = append(labels, metrics.Label{Key: "read_path", Value: dev.Store.ReadPath})
		}
		return metrics.CounterSample(labels, 1)
	})
	deviceCounter := func(name, help string, f func(s *core.Store) float64) {
		r.Register(name, "counter", help, func() []metrics.Sample {
			return metrics.CounterSample(nil, f(s.scrapeStore()))
		})
	}
	deviceCounter("bandana_device_blocks_read_total", "NVM blocks read.",
		func(st *core.Store) float64 { return float64(st.DeviceStats().BlocksRead) })
	deviceCounter("bandana_device_blocks_written_total", "NVM blocks written.",
		func(st *core.Store) float64 { return float64(st.DeviceStats().BlocksWritten) })
	deviceCounter("bandana_device_bytes_read_total", "Bytes read from NVM.",
		func(st *core.Store) float64 { return float64(st.DeviceStats().BytesRead) })
	deviceCounter("bandana_device_reads_submitted_total", "Read intents submitted to the device layer.",
		func(st *core.Store) float64 { return float64(st.DeviceStats().ReadsSubmitted) })
	deviceCounter("bandana_device_read_batches_total", "Device read dispatches.",
		func(st *core.Store) float64 { return float64(st.DeviceStats().ReadBatches) })
	deviceCounter("bandana_device_coalesced_reads_total", "Reads coalesced into another read's device I/O.",
		func(st *core.Store) float64 { return float64(st.DeviceStats().CoalescedReads) })
	deviceCounter("bandana_device_flushes_total", "Block-store flushes.",
		func(st *core.Store) float64 { return float64(st.DeviceStats().Store.Flushes) })
	r.Register("bandana_device_drive_writes", "gauge", "Cumulative full-drive writes (wear).", func() []metrics.Sample {
		return metrics.CounterSample(nil, s.scrapeStore().DeviceStats().DriveWrites)
	})
	r.Register("bandana_device_endurance_dwpd", "gauge", "Projected drive writes per day.", func() []metrics.Sample {
		return metrics.CounterSample(nil, s.scrapeStore().DeviceStats().EnduranceDWPD)
	})

	// I/O scheduler.
	ioschedSamples := func(f func(st iosched.Stats) []metrics.Sample) metrics.GatherFunc {
		return func() []metrics.Sample {
			st, _ := s.scrapeStore().IOSchedStats()
			return f(st)
		}
	}
	r.Register("bandana_iosched_demand_reads_total", "counter", "Reads submitted with the demand label.",
		ioschedSamples(func(st iosched.Stats) []metrics.Sample {
			return metrics.CounterSample(nil, float64(st.DemandReads))
		}))
	r.Register("bandana_iosched_prefetch_reads_total", "counter", "Reads submitted with the prefetch label.",
		ioschedSamples(func(st iosched.Stats) []metrics.Sample {
			return metrics.CounterSample(nil, float64(st.PrefetchReads))
		}))
	r.Register("bandana_iosched_device_reads_total", "counter", "Reads that reached the device.",
		ioschedSamples(func(st iosched.Stats) []metrics.Sample {
			return metrics.CounterSample(nil, float64(st.DeviceReads))
		}))
	r.Register("bandana_iosched_batches_total", "counter", "Device calls.",
		ioschedSamples(func(st iosched.Stats) []metrics.Sample {
			return metrics.CounterSample(nil, float64(st.Batches))
		}))
	r.Register("bandana_iosched_coalesced_total", "counter", "Reads served by another read's device I/O.",
		ioschedSamples(func(st iosched.Stats) []metrics.Sample {
			return metrics.CounterSample(nil, float64(st.Coalesced))
		}))
	r.Register("bandana_iosched_queued_reads", "gauge", "Reads waiting for an issue slot.",
		ioschedSamples(func(st iosched.Stats) []metrics.Sample {
			return metrics.CounterSample(nil, float64(st.QueuedNow))
		}))
	r.Register("bandana_iosched_inflight", "gauge", "Issue slots held: callers with device reads in flight, the realised queue depth in calls.",
		ioschedSamples(func(st iosched.Stats) []metrics.Sample {
			return metrics.CounterSample(nil, float64(st.InFlight))
		}))
	r.Register("bandana_iosched_inflight_max", "gauge", "High-water mark of issue slots held at once.",
		ioschedSamples(func(st iosched.Stats) []metrics.Sample {
			return metrics.CounterSample(nil, float64(st.MaxInFlight))
		}))
	r.Register("bandana_iosched_queue_wait_us", "summary", "Per-read wait from submission to an issue slot (microseconds).",
		ioschedSamples(func(st iosched.Stats) []metrics.Sample {
			return metrics.SummarySamples(nil, st.QueueWait)
		}))
	r.Register("bandana_iosched_service_us", "summary", "Per-device-call wall time of scheduled reads (microseconds).",
		ioschedSamples(func(st iosched.Stats) []metrics.Sample {
			return metrics.SummarySamples(nil, st.Service)
		}))

	// Update log (delta path).
	r.Register("bandana_updatelog_records", "gauge", "Update records retained in the in-memory window.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.scrapeStore().UpdateLogStats().Records))
	})
	r.Register("bandana_updatelog_appends_total", "counter", "Updates appended to the delta log.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.scrapeStore().UpdateLogStats().Appends))
	})
	r.Register("bandana_updatelog_bytes_appended_total", "counter", "Framed bytes appended to the delta log.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.scrapeStore().UpdateLogStats().BytesAppended))
	})
	r.Register("bandana_updatelog_compactions_total", "counter", "Overlay folds into the block image.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.scrapeStore().UpdateLogStats().Compactions))
	})
	r.Register("bandana_updatelog_compact_failures_total", "counter", "Background compactions that returned an error.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.scrapeStore().UpdateLogStats().CompactFailures))
	})
	r.Register("bandana_updatelog_overlay_entries", "gauge", "Updated vectors served from the DRAM overlay, not yet compacted into the block image.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.scrapeStore().UpdateLogStats().OverlayEntries))
	})

	// Wire (bwp) listener.
	r.Register("bandana_wire_enabled", "gauge", "1 once ServeWire is listening.", func() []metrics.Sample {
		v := 0.0
		if s.wireEnabled.Load() {
			v = 1
		}
		return metrics.CounterSample(nil, v)
	})
	r.Register("bandana_wire_conns_total", "counter", "bwp connections accepted.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.wire.Stats().ConnsTotal))
	})
	r.Register("bandana_wire_conns_active", "gauge", "bwp connections currently open.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.wire.Stats().ConnsActive))
	})
	r.Register("bandana_wire_buffer_bytes", "gauge", "Heap the open bwp connections hold in buffers: one 4 KiB read buffer each; responses are written from their own frames.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.wire.Stats().BufferBytes))
	})
	r.Register("bandana_wire_handlers", "gauge", "bwp request handler goroutines alive, idle ones included: each connection keeps the handlers it starts until it closes.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.wire.Stats().Handlers))
	})
	r.Register("bandana_wire_handlers_max", "gauge", "High-water mark of bandana_wire_handlers.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.wire.Stats().HandlersMax))
	})
	r.Register("bandana_wire_requests_total", "counter", "bwp request frames, by opcode.", func() []metrics.Sample {
		var out []metrics.Sample
		for op, os := range s.wire.Stats().Ops {
			out = append(out, metrics.Sample{Labels: metrics.L("opcode", op), Value: float64(os.Requests)})
		}
		return out
	})
	r.Register("bandana_wire_errors_total", "counter", "bwp error frames sent, by opcode.", func() []metrics.Sample {
		var out []metrics.Sample
		for op, os := range s.wire.Stats().Ops {
			out = append(out, metrics.Sample{Labels: metrics.L("opcode", op), Value: float64(os.Errors)})
		}
		return out
	})
	r.Register("bandana_wire_request_duration_us", "summary", "bwp request handle latency by opcode (microseconds).", func() []metrics.Sample {
		var out []metrics.Sample
		for op, os := range s.wire.Stats().Ops {
			out = append(out, metrics.SummarySamples(metrics.L("opcode", op), os.Latency)...)
		}
		return out
	})

	// Store / replication.
	r.Register("bandana_store_read_only", "gauge", "1 on a replica serving a bootstrapped snapshot.", func() []metrics.Sample {
		v := 0.0
		if s.scrapeStore().ReadOnly() {
			v = 1
		}
		return metrics.CounterSample(nil, v)
	})
	r.Register("bandana_store_snapshot_seq", "gauge", "Snapshot sequence of the servable image.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.scrapeStore().SnapshotSeq()))
	})
	r.Register("bandana_store_swaps_total", "counter", "SwapStore calls (replica re-syncs).", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.swaps.Value()))
	})
	r.Register("bandana_store_recovered_migration", "gauge", "1 when opening the store redid a layout install the previous process died in.", func() []metrics.Sample {
		v := 0.0
		if s.scrapeStore().RecoveredMigration() {
			v = 1
		}
		return metrics.CounterSample(nil, v)
	})

	// Layout installs (Train, LoadState, adaptation re-layout).
	r.Register("bandana_layout_installs_total", "counter", "Completed layout installs per table.",
		perTable(func(ts core.TableStats) float64 { return float64(ts.LayoutInstalls) }))
	r.Register("bandana_layout_install_seconds", "gauge", "Duration of the last layout install, from staging the rendered image to clearing the migration record (seconds).", func() []metrics.Sample {
		return metrics.CounterSample(nil, s.scrapeStore().LastLayoutInstall().Seconds())
	})

	// Adaptation engine.
	r.Register("bandana_adaptation_epochs_total", "counter", "Completed adaptation epochs.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.scrapeStore().AdaptationStats().EpochsCompleted))
	})
	r.Register("bandana_adaptation_relayouts_total", "counter", "Block-layout rewrites applied by adaptation.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.scrapeStore().AdaptationStats().Relayouts))
	})
	r.Register("bandana_adaptation_last_epoch_duration_ms", "gauge", "Duration of the last adaptation epoch (ms).", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.scrapeStore().AdaptationStats().LastEpochDuration)/1e6)
	})

	// Process runtime.
	r.Register("bandana_runtime_goroutines", "gauge", "Live goroutines.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(metrics.ReadRuntime(s.start).Goroutines))
	})
	r.Register("bandana_runtime_heap_bytes", "gauge", "Heap bytes in use.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(metrics.ReadRuntime(s.start).HeapBytes))
	})
	r.Register("bandana_runtime_gc_pause_p99_us", "gauge", "Process-lifetime GC pause p99 (microseconds).", func() []metrics.Sample {
		return metrics.CounterSample(nil, metrics.ReadRuntime(s.start).GCPauseP99US)
	})
	r.Register("bandana_runtime_uptime_seconds", "gauge", "Seconds since the server started.", func() []metrics.Sample {
		return metrics.CounterSample(nil, metrics.ReadRuntime(s.start).UptimeSeconds)
	})

	// Slow-request log health: how many slow requests were observed but not
	// logged because the token bucket was dry.
	r.Register("bandana_slow_requests_suppressed", "gauge", "Slow requests awaiting a log slot (resets when a line is emitted).", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(s.slowSuppressed.Load()))
	})

	return r
}
