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

	"bandana/internal/fp16"
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
	// A batch's two stages: gather (scatter, the nodes' service, collecting
	// their frames) and serialize (rendering and writing the JSON body).
	gatherUS    *metrics.Histogram
	serializeUS *metrics.Histogram
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

		gatherUS:    metrics.NewLatencyHistogram(),
		serializeUS: metrics.NewLatencyHistogram(),
	}
	rt.state.Store(st)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /v1/lookup", rt.handleLookup)
	rt.mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
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

// bodyPool recycles the buffers serving responses are rendered into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody keeps the odd multi-megabyte response (MaxBatchIDs vectors)
// from pinning its buffer in the pool.
const maxPooledBody = 1 << 20

// writeBody sends a rendered JSON body with its length, so the response is
// one write instead of chunks.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a client that hung up is not the router's failure
}

// appendJSON appends v's encoding/json text; the serving paths use it for
// strings and IDError records, which always marshal.
func appendJSON(dst []byte, v any) []byte {
	b, _ := json.Marshal(v)
	return append(dst, b...)
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

// errNonFinite is the per-id error for a stored vector with a NaN or an
// infinity in it (any client can store one: updates check only the length).
const errNonFinite = "vector holds a non-finite value JSON cannot carry"

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
	start := time.Now()
	vecs, errs := rt.gatherBatch(r.Context(), st, req.Table, req.IDs)
	gathered := time.Now()
	rt.gatherUS.ObserveDuration(gathered.Sub(start))
	writeBatch(w, st, req.Table, req.IDs, vecs, errs)
	rt.serializeUS.ObserveDuration(time.Since(gathered))
}

// ownerGroup is one primary's share of a batch: the ids it owns and their
// positions in the request.
type ownerGroup struct {
	owner *Node
	n     int // len(ids) once filled; scatter counts into it first
	pos   []int
	ids   []uint32
}

// scatter groups ids by the primary owning their (table, id-range)
// partition. Two passes, count then fill, carve every group from the same
// two arrays, so a batch costs the same allocations at any size.
func scatter(st *routingState, table string, ids []uint32) []ownerGroup {
	var groups []ownerGroup
	groupOf := make([]int, len(ids))
	for i, id := range ids {
		owner := st.ownerOf(table, st.cfg.PartitionOf(id))
		g := 0
		for g < len(groups) && groups[g].owner != owner {
			g++
		}
		if g == len(groups) {
			groups = append(groups, ownerGroup{owner: owner})
		}
		groups[g].n++
		groupOf[i] = g
	}
	pos, gids := make([]int, len(ids)), make([]uint32, len(ids))
	off := 0
	for g := range groups {
		end := off + groups[g].n
		groups[g].pos, groups[g].ids = pos[off:off:end], gids[off:off:end]
		off = end
	}
	for i, id := range ids {
		g := &groups[groupOf[i]]
		g.pos, g.ids = append(g.pos, i), append(g.ids, id)
	}
	return groups
}

// gatherBatch fetches each id's raw fp16 vector into its position in the
// request: views into the owning nodes' responses, never decoded. One
// goroutine per owner; a group failure leaves its positions nil and degrades
// to per-id errors instead of failing the request.
func (rt *Router) gatherBatch(ctx context.Context, st *routingState, table string, ids []uint32) ([][]byte, []IDError) {
	vecs := make([][]byte, len(ids))
	var errs []IDError
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, g := range scatter(st, table, ids) {
		wg.Add(1)
		go func(g ownerGroup) {
			defer wg.Done()
			got, _, err := rt.hedgedBatch(ctx, st, g.owner, table, g.ids)
			if err != nil {
				mu.Lock()
				defer mu.Unlock()
				for i, pos := range g.pos {
					errs = append(errs, IDError{Index: pos, ID: g.ids[i], Node: g.owner.ID, Error: err.Error()})
				}
				return
			}
			// Groups hold disjoint positions: no lock.
			for i, pos := range g.pos {
				vecs[pos] = got[i]
			}
		}(g)
	}
	wg.Wait()
	return vecs, errs
}

// writeBatch renders and sends the /v1/batch answer, byte for byte what
// encoding/json writes for a BatchResponse holding the decoded vectors: each
// vector goes from fp16 bytes to JSON text through fp16.AppendJSON. A
// vector JSON cannot carry becomes null plus a per-id error, like a vector
// that was never fetched.
func writeBatch(w http.ResponseWriter, st *routingState, table string, ids []uint32, vecs [][]byte, errs []IDError) {
	bp := bodyPool.Get().(*[]byte)
	b := append((*bp)[:0], `{"table":`...)
	b = appendJSON(b, table)
	b = append(b, `,"vectors":[`...)
	for i, v := range vecs {
		if i > 0 {
			b = append(b, ',')
		}
		if v == nil {
			b = append(b, "null"...)
			continue
		}
		var ok bool
		if b, ok = fp16.AppendJSON(b, v); !ok {
			b = append(b, "null"...)
			owner := st.ownerOf(table, st.cfg.PartitionOf(ids[i]))
			errs = append(errs, IDError{Index: i, ID: ids[i], Node: owner.ID, Error: errNonFinite})
		}
	}
	b = append(b, ']')
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Index < errs[j].Index })
		b = append(b, `,"errors":`...)
		b = appendJSON(b, errs)
	}
	b = append(b, "}\n"...)
	writeBody(w, b)
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
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
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	b := append((*bp)[:0], `{"table":`...)
	b = appendJSON(b, tableName)
	b = append(b, `,"id":`...)
	b = strconv.AppendUint(b, id64, 10)
	b = append(b, `,"vector":`...)
	b, ok := fp16.AppendJSON(b, vecs[0])
	if !ok {
		routerError(w, http.StatusInternalServerError, "table %s id %d on node %s: %s", tableName, id, from.ID, errNonFinite)
		return
	}
	b = append(b, `,"node":`...)
	b = appendJSON(b, from.ID)
	*bp = append(b, "}\n"...)
	writeBody(w, *bp)
}

// hedgedBatch sends one owner's sub-batch to the owner, hedging to (or
// failing over onto) its replicas: a hedge fires when the primary is slower
// than HedgeAfter, a failover fires immediately when an attempt returns a
// hard error. The first successful answer wins and cancels the rest.
func (rt *Router) hedgedBatch(ctx context.Context, st *routingState, owner *Node, table string, ids []uint32) ([][]byte, *Node, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.NodeTimeout)
	defer cancel()

	type attempt struct {
		vecs [][]byte
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
// transport failure), over HTTP otherwise. Either way the answer is one raw
// fp16 vector per id. The in-flight bound covers both transports.
func (rt *Router) postBatch(ctx context.Context, n *Node, table string, ids []uint32) ([][]byte, error) {
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

// wireBatch sends one batch over the node's persistent bwp connection. The
// vectors are views into the response frame, exactly as the node sent them.
func (rt *Router) wireBatch(ctx context.Context, nc *nodeClient, n *Node, table string, ids []uint32) ([][]byte, error) {
	c, err := nc.wireConn(n.WireAddr, rt.opts.NodeTimeout)
	if err != nil {
		return nil, err
	}
	_, vecs, err := c.LookupBatchRaw(ctx, table, ids)
	return vecs, err
}

// httpBatch is the JSON transport: one POST /v1/batch to one node. The floats
// a node writes came from fp16, so encoding them back is exact and the
// router's edge sees the same bytes the wire path would have brought.
func (rt *Router) httpBatch(ctx context.Context, nc *nodeClient, n *Node, table string, ids []uint32) ([][]byte, error) {
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
	total := 0
	for _, v := range out.Vectors {
		total += len(v)
	}
	flat := make([]byte, 0, total*fp16.ByteSize)
	vecs := make([][]byte, len(out.Vectors))
	for i, v := range out.Vectors {
		off := len(flat)
		flat = fp16.EncodeSlice(flat, v)
		vecs[i] = flat[off:len(flat):len(flat)]
	}
	return vecs, nil
}
