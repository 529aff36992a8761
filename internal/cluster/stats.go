package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"bandana/internal/metrics"
)

// NodeStats is one node's row in the router's /v1/stats: the router's own
// counters for the node plus a live health/hit-ratio probe.
type NodeStats struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	Role Role   `json:"role"`
	// ReplicaOf is set for replicas.
	ReplicaOf string `json:"replicaOf,omitempty"`

	// WireAddr is the node's advertised bwp listener ("" = HTTP only).
	WireAddr string `json:"wireAddr,omitempty"`

	// Router-side counters (persist across membership reloads).
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	Timeouts  int64 `json:"timeouts"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedgeWins"`
	InFlight  int64 `json:"inFlight"`
	// WireRequests counts batches served over bwp; WireFallbacks counts
	// wire transport failures that degraded a request to HTTP.
	WireRequests  int64 `json:"wireRequests"`
	WireFallbacks int64 `json:"wireFallbacks"`

	// Probe results.
	Alive       bool    `json:"alive"`
	ProbeError  string  `json:"probeError,omitempty"`
	ReadOnly    bool    `json:"readOnly,omitempty"`
	SnapshotSeq uint64  `json:"snapshotSeq,omitempty"`
	Lookups     int64   `json:"lookups"`
	HitRate     float64 `json:"hitRate"`
}

// RouterStats is the router's /v1/stats payload.
type RouterStats struct {
	Cluster struct {
		Nodes       int    `json:"nodes"`
		Primaries   int    `json:"primaries"`
		Replicas    int    `json:"replicas"`
		IDRangeSize uint32 `json:"idRangeSize"`
		Reloads     int64  `json:"reloads"`
	} `json:"cluster"`
	Router struct {
		Requests int64            `json:"requests"`
		Errors   int64            `json:"errors"`
		InFlight int64            `json:"inFlight"`
		Latency  metrics.Snapshot `json:"latencyUS"`
		// Stages splits a batch's latency: gathering the nodes' fp16
		// frames, and rendering and writing the JSON body.
		Stages struct {
			Gather    metrics.Snapshot `json:"gather"`
			Serialize metrics.Snapshot `json:"serialize"`
		} `json:"stagesUS"`
	} `json:"router"`
	Runtime metrics.RuntimeStats `json:"runtime"`
	Nodes   []NodeStats          `json:"nodes"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	st := rt.state.Load()
	var out RouterStats
	out.Cluster.Nodes = len(st.cfg.Nodes)
	out.Cluster.Primaries = len(st.primaries)
	out.Cluster.Replicas = len(st.cfg.Nodes) - len(st.primaries)
	out.Cluster.IDRangeSize = st.cfg.IDRangeSize
	out.Cluster.Reloads = rt.reloads.Value()
	out.Router.Requests = rt.requests.Value()
	out.Router.Errors = rt.errors.Value()
	out.Router.InFlight = rt.inflight.Value()
	out.Router.Latency = rt.latency.Snapshot()
	out.Router.Stages.Gather = rt.gatherUS.Snapshot()
	out.Router.Stages.Serialize = rt.serializeUS.Snapshot()
	out.Runtime = metrics.ReadRuntime(rt.start)

	// Probe every node concurrently; a dead node just reports !alive.
	out.Nodes = make([]NodeStats, len(st.cfg.Nodes))
	var wg sync.WaitGroup
	for i := range st.cfg.Nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := &st.cfg.Nodes[i]
			nc := rt.client(n.ID)
			ns := NodeStats{
				ID: n.ID, Addr: n.Addr, Role: n.Role, ReplicaOf: n.ReplicaOf,
				WireAddr: n.WireAddr,
				Requests: nc.requests.Value(), Errors: nc.errors.Value(),
				Timeouts: nc.timeouts.Value(), Hedges: nc.hedges.Value(),
				HedgeWins: nc.hedgeWins.Value(), InFlight: nc.inflight.Value(),
				WireRequests:  nc.wireRequests.Value(),
				WireFallbacks: nc.wireFallbacks.Value(),
			}
			rt.probeNode(r.Context(), n, &ns)
			out.Nodes[i] = ns
		}(i)
	}
	wg.Wait()
	routerJSON(w, http.StatusOK, out)
}

// probeTimeout bounds one node's health/stats probe under /v1/stats.
const probeTimeout = time.Second

// probeNode fills the live fields of one node's stats row from the node's
// /v1/stats, the JSON view of its /metrics registry.
func (rt *Router) probeNode(ctx context.Context, n *Node, ns *NodeStats) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Addr+"/v1/stats", nil)
	if err != nil {
		ns.ProbeError = err.Error()
		return
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		ns.ProbeError = err.Error()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ns.ProbeError = resp.Status
		return
	}
	view, err := metrics.ParseJSON(resp.Body)
	if err != nil {
		ns.ProbeError = err.Error()
		return
	}
	ns.Alive = true
	ns.ReadOnly = view["bandana_store_read_only"][""] == 1
	ns.SnapshotSeq = uint64(view["bandana_store_snapshot_seq"][""])
	var lookups, hits float64
	for table, count := range view["bandana_table_lookups_total"] {
		lookups += count
		hits += view["bandana_table_hits_total"][table]
	}
	ns.Lookups = int64(lookups)
	if lookups > 0 {
		ns.HitRate = hits / lookups
	}
}
