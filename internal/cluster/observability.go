package cluster

import (
	"sort"

	"bandana/internal/metrics"
)

// metricsRegistry builds the router's Prometheus registry. Gather closures
// read router-side counters and the current membership only — scrapes never
// probe nodes (the live per-node health probe stays a /v1/stats feature), so
// a scrape costs microseconds regardless of cluster size or node health.
func (rt *Router) metricsRegistry() *metrics.Registry {
	r := metrics.NewRegistry()

	r.Register("bandana_router_requests_total", "counter", "Client requests served by the router.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(rt.requests.Value()))
	})
	r.Register("bandana_router_errors_total", "counter", "Router responses with status >= 400.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(rt.errors.Value()))
	})
	r.Register("bandana_router_inflight_requests", "gauge", "Client requests currently in flight.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(rt.inflight.Value()))
	})
	r.Register("bandana_router_request_duration_us", "summary", "End-to-end router request latency (microseconds).", func() []metrics.Sample {
		return metrics.SummarySamples(nil, rt.latency.Snapshot())
	})
	r.Register("bandana_router_stage_duration_us", "summary",
		"A batch's time in the router (microseconds): gather (scatter, node service, collecting the fp16 frames), serialize (rendering and writing the JSON body).",
		func() []metrics.Sample {
			out := metrics.SummarySamples(metrics.L("stage", "gather"), rt.gatherUS.Snapshot())
			return append(out, metrics.SummarySamples(metrics.L("stage", "serialize"), rt.serializeUS.Snapshot())...)
		})
	r.Register("bandana_router_reloads_total", "counter", "Membership reloads applied.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(rt.reloads.Value()))
	})

	// Membership shape (from the current routing state).
	r.Register("bandana_cluster_nodes", "gauge", "Nodes in the current membership.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(len(rt.state.Load().cfg.Nodes)))
	})
	r.Register("bandana_cluster_primaries", "gauge", "Primary nodes in the current membership.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(len(rt.state.Load().primaries)))
	})

	// Per-node router-side counters. Rows come from the persistent client
	// map (keyed by node ID, survives reloads) so counters for a node that
	// was removed from membership remain visible until restart.
	perNode := func(f func(nc *nodeClient) float64) metrics.GatherFunc {
		return func() []metrics.Sample {
			rt.clientsMu.Lock()
			ids := make([]string, 0, len(rt.clients))
			for id := range rt.clients {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			out := make([]metrics.Sample, 0, len(ids))
			for _, id := range ids {
				out = append(out, metrics.Sample{Labels: metrics.L("node", id), Value: f(rt.clients[id])})
			}
			rt.clientsMu.Unlock()
			return out
		}
	}
	r.Register("bandana_node_requests_total", "counter", "Requests the router sent to each node.",
		perNode(func(nc *nodeClient) float64 { return float64(nc.requests.Value()) }))
	r.Register("bandana_node_errors_total", "counter", "Node failures observed by the router, per node.",
		perNode(func(nc *nodeClient) float64 { return float64(nc.errors.Value()) }))
	r.Register("bandana_node_timeouts_total", "counter", "Requests to each node that hit the node timeout.",
		perNode(func(nc *nodeClient) float64 { return float64(nc.timeouts.Value()) }))
	r.Register("bandana_node_hedges_total", "counter", "Hedged requests fired for each primary.",
		perNode(func(nc *nodeClient) float64 { return float64(nc.hedges.Value()) }))
	r.Register("bandana_node_hedge_wins_total", "counter", "Hedged requests a replica answered first.",
		perNode(func(nc *nodeClient) float64 { return float64(nc.hedgeWins.Value()) }))
	r.Register("bandana_node_inflight_requests", "gauge", "Requests currently outstanding to each node.",
		perNode(func(nc *nodeClient) float64 { return float64(nc.inflight.Value()) }))
	r.Register("bandana_node_wire_requests_total", "counter", "Batches served over bwp per node.",
		perNode(func(nc *nodeClient) float64 { return float64(nc.wireRequests.Value()) }))
	r.Register("bandana_node_wire_fallbacks_total", "counter", "Wire transport failures degraded to HTTP per node.",
		perNode(func(nc *nodeClient) float64 { return float64(nc.wireFallbacks.Value()) }))
	r.Register("bandana_wire_buffer_bytes", "gauge", "Heap the router's open bwp connections to its nodes hold in buffers: one 12 KiB read buffer each; requests are written from their own frames.", func() []metrics.Sample {
		rt.clientsMu.Lock()
		defer rt.clientsMu.Unlock()
		var n int64
		for _, nc := range rt.clients {
			nc.wireMu.Lock()
			if nc.wireC != nil {
				n += nc.wireC.BufferBytes()
			}
			nc.wireMu.Unlock()
		}
		return metrics.CounterSample(nil, float64(n))
	})

	// Process runtime.
	r.Register("bandana_router_runtime_goroutines", "gauge", "Live goroutines.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(metrics.ReadRuntime(rt.start).Goroutines))
	})
	r.Register("bandana_router_runtime_heap_bytes", "gauge", "Heap bytes in use.", func() []metrics.Sample {
		return metrics.CounterSample(nil, float64(metrics.ReadRuntime(rt.start).HeapBytes))
	})
	r.Register("bandana_router_runtime_uptime_seconds", "gauge", "Seconds since the router started.", func() []metrics.Sample {
		return metrics.CounterSample(nil, metrics.ReadRuntime(rt.start).UptimeSeconds)
	})

	return r
}
