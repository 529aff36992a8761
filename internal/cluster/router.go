package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/metrics"
	"bandana/internal/wire"
)

// nodeHTTPError is a node's own HTTP rejection (as opposed to a transport
// failure or timeout). 4xx rejections are the *client's* fault — every node
// serves the same schema, so failing over to a replica would only repeat
// the rejection while inflating healthy nodes' error counters.
type nodeHTTPError struct {
	status int
	msg    string
}

func (e *nodeHTTPError) Error() string { return e.msg }

// isClientError reports whether err is a node-side 4xx rejection.
func isClientError(err error) (*nodeHTTPError, bool) {
	var he *nodeHTTPError
	if errors.As(err, &he) && he.status >= 400 && he.status < 500 {
		return he, true
	}
	return nil, false
}

// RouterOptions tunes the scatter-gather router.
type RouterOptions struct {
	// HedgeAfter is the latency threshold after which a request still
	// waiting on a primary is hedged to one of its replicas (first answer
	// wins). Zero uses the default (20ms); negative disables hedging.
	HedgeAfter time.Duration
	// NodeTimeout bounds one node's share of a request (connect + serve +
	// read). Defaults to 2s.
	NodeTimeout time.Duration
	// MaxInflightPerNode bounds concurrent requests outstanding to one
	// node; excess requests wait (within NodeTimeout) instead of piling
	// onto a struggling box. Defaults to 128.
	MaxInflightPerNode int
	// Transport overrides the HTTP transport (tests inject failures here);
	// nil uses a pooled transport sized for MaxInflightPerNode.
	Transport http.RoundTripper
}

func (o *RouterOptions) defaults() {
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 20 * time.Millisecond
	}
	if o.NodeTimeout <= 0 {
		o.NodeTimeout = 2 * time.Second
	}
	if o.MaxInflightPerNode <= 0 {
		o.MaxInflightPerNode = 128
	}
}

// nodeClient is the per-node runtime state: the in-flight bound and the
// counters. It is keyed by node ID and survives membership reloads, so a
// SIGHUP does not reset observability or let a reload exceed the node's
// in-flight bound.
type nodeClient struct {
	id  string
	sem chan struct{}

	requests  metrics.Counter
	errors    metrics.Counter
	timeouts  metrics.Counter
	hedges    metrics.Counter
	hedgeWins metrics.Counter
	inflight  metrics.Gauge

	// Wire path state: one persistent multiplexed bwp connection per node,
	// re-dialed lazily after it dies. wireRequests counts batches served
	// over bwp; wireFallbacks counts wire transport failures that degraded
	// a request to the node's HTTP API.
	wireMu        sync.Mutex
	wireC         *wire.Client
	wireAddr      string
	wireRequests  metrics.Counter
	wireFallbacks metrics.Counter
}

// wireConn returns the node's persistent wire client, dialing (or
// re-dialing after a transport failure) as needed.
func (nc *nodeClient) wireConn(addr string, dialTimeout time.Duration) (*wire.Client, error) {
	nc.wireMu.Lock()
	defer nc.wireMu.Unlock()
	if nc.wireC != nil && nc.wireAddr == addr && nc.wireC.Err() == nil {
		return nc.wireC, nil
	}
	if nc.wireC != nil {
		nc.wireC.Close()
		nc.wireC = nil
	}
	c, err := wire.Dial(addr, wire.Options{DialTimeout: dialTimeout})
	if err != nil {
		return nil, err
	}
	nc.wireC, nc.wireAddr = c, addr
	return c, nil
}

// Router scatter-gathers client requests across the cluster. All methods
// are safe for concurrent use; Reload may be called at any time (the SIGHUP
// handler of cmd/bandana-router does).
type Router struct {
	opts  RouterOptions
	state atomic.Pointer[routingState]
	mux   *http.ServeMux
	httpc *http.Client
	start time.Time

	clientsMu sync.Mutex
	clients   map[string]*nodeClient

	requests metrics.Counter
	errors   metrics.Counter
	inflight metrics.Gauge
	reloads  metrics.Counter
	latency  *metrics.Histogram
}

// NewRouter builds a router over an initial membership.
func NewRouter(cfg *Config, opts RouterOptions) (*Router, error) {
	opts.defaults()
	st, err := newRoutingState(cfg)
	if err != nil {
		return nil, err
	}
	transport := opts.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        4 * opts.MaxInflightPerNode,
			MaxIdleConnsPerHost: opts.MaxInflightPerNode,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	rt := &Router{
		opts:    opts,
		mux:     http.NewServeMux(),
		httpc:   &http.Client{Transport: transport},
		start:   time.Now(),
		clients: make(map[string]*nodeClient),
		latency: metrics.NewLatencyHistogram(),
	}
	rt.state.Store(st)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /v1/lookup", rt.handleLookup)
	rt.mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.Handle("GET /metrics", rt.metricsRegistry().Handler())
	return rt, nil
}

// Reload validates cfg and atomically swaps it in. In-flight requests keep
// routing against the state they loaded — a membership change never drops
// them — and per-node counters/limits carry over by node ID.
func (rt *Router) Reload(cfg *Config) error {
	st, err := newRoutingState(cfg)
	if err != nil {
		return err
	}
	rt.state.Store(st)
	rt.reloads.Inc()
	return nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rt.requests.Inc()
		rt.inflight.Add(1)
		rec := &routerStatusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			rt.inflight.Add(-1)
			if rec.status >= 400 {
				rt.errors.Inc()
			}
			rt.latency.ObserveDuration(time.Since(start))
		}()
		rt.mux.ServeHTTP(rec, r)
	})
}

type routerStatusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *routerStatusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// client returns (creating on first use) the per-node runtime state.
func (rt *Router) client(nodeID string) *nodeClient {
	rt.clientsMu.Lock()
	defer rt.clientsMu.Unlock()
	nc := rt.clients[nodeID]
	if nc == nil {
		nc = &nodeClient{id: nodeID, sem: make(chan struct{}, rt.opts.MaxInflightPerNode)}
		rt.clients[nodeID] = nc
	}
	return nc
}

func routerJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func routerError(w http.ResponseWriter, status int, format string, args ...any) {
	routerJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st := rt.state.Load()
	routerJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"nodes":     len(st.cfg.Nodes),
		"primaries": len(st.primaries),
	})
}

// BatchRequest is the router's /v1/batch body (same shape the nodes
// accept, so clients can talk to either tier).
type BatchRequest struct {
	Table string   `json:"table"`
	IDs   []uint32 `json:"ids"`
}

// IDError reports one id that could not be served (its partition's owner —
// and every failover candidate — failed). Index is the position in the
// request's id list.
type IDError struct {
	Index int    `json:"index"`
	ID    uint32 `json:"id"`
	Node  string `json:"node"`
	Error string `json:"error"`
}

// BatchResponse is the router's /v1/batch answer: vectors aligned with the
// requested ids (null where that id failed) plus per-id errors. Partial
// node failures never fail the whole request.
type BatchResponse struct {
	Table   string      `json:"table"`
	Vectors [][]float32 `json:"vectors"`
	Errors  []IDError   `json:"errors,omitempty"`
}

// MaxBatchIDs mirrors the node-side bound (internal/server.MaxBatchIDs is
// not imported to keep the tiers decoupled; the values must not drift
// apart, which a cluster test pins).
const MaxBatchIDs = 8192

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		routerError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if req.Table == "" || len(req.IDs) == 0 {
		routerError(w, http.StatusBadRequest, "'table' and non-empty 'ids' are required")
		return
	}
	if len(req.IDs) > MaxBatchIDs {
		routerError(w, http.StatusBadRequest, "batch of %d ids exceeds the limit of %d (split the request)", len(req.IDs), MaxBatchIDs)
		return
	}
	st := rt.state.Load()

	// Scatter: group the ids by the primary owning their (table, id-range)
	// partition, preserving each id's position in the request.
	type ref struct {
		pos int
		id  uint32
	}
	groups := make(map[string][]ref)
	owners := make(map[string]*Node)
	for i, id := range req.IDs {
		owner := st.ownerOf(req.Table, st.cfg.PartitionOf(id))
		groups[owner.ID] = append(groups[owner.ID], ref{pos: i, id: id})
		owners[owner.ID] = owner
	}

	// Gather: one goroutine per owner; a group failure degrades to per-id
	// errors instead of failing the request.
	resp := BatchResponse{Table: req.Table, Vectors: make([][]float32, len(req.IDs))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ownerID, refs := range groups {
		wg.Add(1)
		go func(owner *Node, refs []ref) {
			defer wg.Done()
			ids := make([]uint32, len(refs))
			for i, rf := range refs {
				ids[i] = rf.id
			}
			vecs, _, err := rt.hedgedBatch(r.Context(), st, owner, req.Table, ids)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				for _, rf := range refs {
					resp.Errors = append(resp.Errors, IDError{
						Index: rf.pos, ID: rf.id, Node: owner.ID, Error: err.Error(),
					})
				}
				return
			}
			for i, rf := range refs {
				resp.Vectors[rf.pos] = vecs[i]
			}
		}(owners[ownerID], refs)
	}
	wg.Wait()
	sort.Slice(resp.Errors, func(i, j int) bool { return resp.Errors[i].Index < resp.Errors[j].Index })
	routerJSON(w, http.StatusOK, resp)
}

// LookupResponse is the router's /v1/lookup answer (same shape as a node's).
type LookupResponse struct {
	Table  string    `json:"table"`
	ID     uint32    `json:"id"`
	Vector []float32 `json:"vector"`
	Node   string    `json:"node"`
}

func (rt *Router) handleLookup(w http.ResponseWriter, r *http.Request) {
	tableName := r.URL.Query().Get("table")
	idStr := r.URL.Query().Get("id")
	if tableName == "" || idStr == "" {
		routerError(w, http.StatusBadRequest, "query parameters 'table' and 'id' are required")
		return
	}
	id64, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil {
		routerError(w, http.StatusBadRequest, "invalid id %q", idStr)
		return
	}
	id := uint32(id64)
	st := rt.state.Load()
	owner := st.ownerOf(tableName, st.cfg.PartitionOf(id))
	vecs, from, err := rt.hedgedBatch(r.Context(), st, owner, tableName, []uint32{id})
	if err != nil {
		// A node-side 4xx keeps its status (the client's own bad request);
		// node failures surface as 502.
		if he, client := isClientError(err); client {
			routerError(w, he.status, "%s", he.msg)
			return
		}
		routerError(w, http.StatusBadGateway, "node %s: %v", owner.ID, err)
		return
	}
	routerJSON(w, http.StatusOK, LookupResponse{Table: tableName, ID: id, Vector: vecs[0], Node: from.ID})
}

// hedgedBatch sends one owner's sub-batch to the owner, hedging to (or
// failing over onto) its replicas: a hedge fires when the primary is slower
// than HedgeAfter, a failover fires immediately when an attempt returns a
// hard error. The first successful answer wins and cancels the rest.
func (rt *Router) hedgedBatch(ctx context.Context, st *routingState, owner *Node, table string, ids []uint32) ([][]float32, *Node, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.NodeTimeout)
	defer cancel()

	type attempt struct {
		vecs [][]float32
		node *Node
		err  error
	}
	results := make(chan attempt, 1+len(st.replicasFor(owner.ID)))
	send := func(n *Node) {
		vecs, err := rt.postBatch(ctx, n, table, ids)
		results <- attempt{vecs: vecs, node: n, err: err}
	}

	go send(owner)
	pending := 1
	candidates := append([]*Node(nil), st.replicasFor(owner.ID)...)
	var hedgeC <-chan time.Time
	if rt.opts.HedgeAfter >= 0 && len(candidates) > 0 {
		timer := time.NewTimer(rt.opts.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	hedged := false
	var firstErr error
	for pending > 0 {
		select {
		case res := <-results:
			pending--
			if res.err == nil {
				if res.node != owner && hedged {
					rt.client(owner.ID).hedgeWins.Inc()
				}
				return res.vecs, res.node, nil
			}
			// A 4xx from the node is the client's own bad request —
			// deterministic on every node, so neither failover nor hedging
			// can help. Propagate it as-is.
			if _, client := isClientError(res.err); client {
				return nil, res.node, res.err
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("node %s: %w", res.node.ID, res.err)
			}
			// Hard failure: fail over to the next replica immediately
			// rather than waiting out the hedge timer.
			if len(candidates) > 0 {
				next := candidates[0]
				candidates = candidates[1:]
				pending++
				go send(next)
			}
		case <-hedgeC:
			hedgeC = nil
			if len(candidates) > 0 {
				next := candidates[0]
				candidates = candidates[1:]
				rt.client(owner.ID).hedges.Inc()
				hedged = true
				pending++
				go send(next)
			}
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = ctx.Err()
			}
			return nil, nil, firstErr
		}
	}
	return nil, nil, firstErr
}

// nodeBatchResponse decodes a node's /v1/batch answer.
type nodeBatchResponse struct {
	Vectors [][]float32 `json:"vectors"`
}

// postBatch issues one bounded, counted request to one node, over bwp when
// the node advertises a wire address (falling back to HTTP on wire
// transport failure), over HTTP otherwise. The in-flight bound covers both
// transports.
func (rt *Router) postBatch(ctx context.Context, n *Node, table string, ids []uint32) ([][]float32, error) {
	nc := rt.client(n.ID)
	select {
	case nc.sem <- struct{}{}:
	case <-ctx.Done():
		nc.timeouts.Inc()
		return nil, fmt.Errorf("saturated (%d in flight): %w", cap(nc.sem), ctx.Err())
	}
	defer func() { <-nc.sem }()
	nc.requests.Inc()
	nc.inflight.Add(1)
	defer nc.inflight.Add(-1)

	if n.WireAddr != "" {
		vecs, err := rt.wireBatch(ctx, nc, n, table, ids)
		if err == nil {
			nc.wireRequests.Inc()
			return vecs, nil
		}
		var werr *wire.Error
		if errors.As(err, &werr) {
			// The node answered over bwp; its rejection maps onto the HTTP
			// statuses the rest of the router understands. Re-asking over
			// HTTP would only repeat the answer.
			switch werr.Code {
			case wire.CodeNotFound:
				return nil, &nodeHTTPError{status: http.StatusNotFound, msg: werr.Msg}
			case wire.CodeBadRequest, wire.CodeTooLarge:
				return nil, &nodeHTTPError{status: http.StatusBadRequest, msg: werr.Msg}
			default:
				nc.errors.Inc()
				return nil, fmt.Errorf("wire: %s", werr.Msg)
			}
		}
		if ctx.Err() != nil {
			nc.errors.Inc()
			nc.timeouts.Inc()
			return nil, err
		}
		// Wire transport failure (refused, dropped mid-stream): degrade to
		// the node's HTTP API for this request. The next wire call re-dials.
		nc.wireFallbacks.Inc()
	}
	return rt.httpBatch(ctx, nc, n, table, ids)
}

// wireBatch sends one batch over the node's persistent bwp connection.
func (rt *Router) wireBatch(ctx context.Context, nc *nodeClient, n *Node, table string, ids []uint32) ([][]float32, error) {
	c, err := nc.wireConn(n.WireAddr, rt.opts.NodeTimeout)
	if err != nil {
		return nil, err
	}
	vecs, err := c.LookupBatchF32(ctx, table, ids)
	if err != nil {
		return nil, err
	}
	if len(vecs) != len(ids) {
		return nil, fmt.Errorf("node returned %d vectors for %d ids", len(vecs), len(ids))
	}
	return vecs, nil
}

// httpBatch is the JSON transport: one POST /v1/batch to one node.
func (rt *Router) httpBatch(ctx context.Context, nc *nodeClient, n *Node, table string, ids []uint32) ([][]float32, error) {
	body, err := json.Marshal(BatchRequest{Table: table, IDs: ids})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.Addr+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		nc.errors.Inc()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.httpc.Do(req)
	if err != nil {
		nc.errors.Inc()
		if ctx.Err() != nil {
			nc.timeouts.Inc()
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			// The node rejected the request (unknown table, bad id, ...):
			// not a node failure, so the node's error counter stays put.
			return nil, &nodeHTTPError{status: resp.StatusCode, msg: e.Error}
		}
		nc.errors.Inc()
		return nil, fmt.Errorf("%s", e.Error)
	}
	var out nodeBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		nc.errors.Inc()
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if len(out.Vectors) != len(ids) {
		nc.errors.Inc()
		return nil, fmt.Errorf("node returned %d vectors for %d ids", len(out.Vectors), len(ids))
	}
	return out.Vectors, nil
}
