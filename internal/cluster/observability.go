package cluster

import (
	"net/http"
	"sort"

	"bandana/internal/metrics"
)

// handleMetrics serves the router's Prometheus exposition.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.registry().Handler().ServeHTTP(w, r)
}

// registry renders one scrape of the router from router-side counters and
// the current membership only — scrapes never probe nodes (the live per-node
// health probe stays a /v1/stats feature), so a scrape costs microseconds
// regardless of cluster size or node health. The runtime is read once and
// the node clients under one hold of their lock.
func (rt *Router) registry() *metrics.Registry {
	st := rt.state.Load()
	proc := metrics.ReadRuntime(rt.start)
	// Per-node rows come from the persistent client map (keyed by node ID,
	// survives reloads) so counters for a node that was removed from
	// membership remain visible until restart.
	rt.clientsMu.Lock()
	ids := make([]string, 0, len(rt.clients))
	for id := range rt.clients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	clients := make([]*nodeClient, len(ids))
	var bufBytes int64
	for i, id := range ids {
		nc := rt.clients[id]
		clients[i] = nc
		nc.wireMu.Lock()
		if nc.wireC != nil {
			bufBytes += nc.wireC.BufferBytes()
		}
		nc.wireMu.Unlock()
	}
	rt.clientsMu.Unlock()

	r := metrics.NewRegistry()
	value := func(name, typ, help string, v float64) {
		r.Register(name, typ, help, metrics.CounterSample(nil, v))
	}
	perNode := func(name, typ, help string, f func(nc *nodeClient) int64) {
		out := make([]metrics.Sample, len(ids))
		for i, id := range ids {
			out[i] = metrics.Sample{Labels: metrics.L("node", id), Value: float64(f(clients[i]))}
		}
		r.Register(name, typ, help, out)
	}

	value("bandana_router_requests_total", "counter", "Client requests served by the router.", float64(rt.requests.Value()))
	value("bandana_router_errors_total", "counter", "Router responses with status >= 400.", float64(rt.errors.Value()))
	value("bandana_router_inflight_requests", "gauge", "Client requests currently in flight.", float64(rt.inflight.Value()))
	r.Register("bandana_router_request_duration_us", "summary", "End-to-end router request latency (microseconds).",
		metrics.SummarySamples(nil, rt.latency.Snapshot()))
	r.Register("bandana_router_stage_duration_us", "summary",
		"A batch's time in the router (microseconds): gather (scatter, node service, collecting the fp16 frames), serialize (rendering and writing the JSON body).",
		append(metrics.SummarySamples(metrics.L("stage", "gather"), rt.gatherUS.Snapshot()),
			metrics.SummarySamples(metrics.L("stage", "serialize"), rt.serializeUS.Snapshot())...))
	value("bandana_router_reloads_total", "counter", "Membership reloads applied.", float64(rt.reloads.Value()))

	// Membership shape (from the current routing state).
	value("bandana_cluster_nodes", "gauge", "Nodes in the current membership.", float64(len(st.cfg.Nodes)))
	value("bandana_cluster_primaries", "gauge", "Primary nodes in the current membership.", float64(len(st.primaries)))

	// Per-node router-side counters.
	perNode("bandana_node_requests_total", "counter", "Requests the router sent to each node.",
		func(nc *nodeClient) int64 { return nc.requests.Value() })
	perNode("bandana_node_errors_total", "counter", "Node failures observed by the router, per node.",
		func(nc *nodeClient) int64 { return nc.errors.Value() })
	perNode("bandana_node_timeouts_total", "counter", "Requests to each node that hit the node timeout.",
		func(nc *nodeClient) int64 { return nc.timeouts.Value() })
	perNode("bandana_node_hedges_total", "counter", "Hedged requests fired for each primary.",
		func(nc *nodeClient) int64 { return nc.hedges.Value() })
	perNode("bandana_node_hedge_wins_total", "counter", "Hedged requests a replica answered first.",
		func(nc *nodeClient) int64 { return nc.hedgeWins.Value() })
	perNode("bandana_node_inflight_requests", "gauge", "Requests currently outstanding to each node.",
		func(nc *nodeClient) int64 { return nc.inflight.Value() })
	perNode("bandana_node_wire_requests_total", "counter", "Batches served over bwp per node.",
		func(nc *nodeClient) int64 { return nc.wireRequests.Value() })
	perNode("bandana_node_wire_fallbacks_total", "counter", "Wire transport failures degraded to HTTP per node.",
		func(nc *nodeClient) int64 { return nc.wireFallbacks.Value() })
	value("bandana_wire_buffer_bytes", "gauge", "Heap the router's open bwp connections to its nodes hold in buffers: one 12 KiB read buffer each; requests are written from their own frames.", float64(bufBytes))

	// Process runtime.
	value("bandana_router_runtime_goroutines", "gauge", "Live goroutines.", float64(proc.Goroutines))
	value("bandana_router_runtime_heap_bytes", "gauge", "Heap bytes in use.", float64(proc.HeapBytes))
	value("bandana_router_runtime_uptime_seconds", "gauge", "Seconds since the router started.", proc.UptimeSeconds)
	return r
}
