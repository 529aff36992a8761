// Package server exposes a Bandana store over HTTP.
//
// In production, embedding stores sit behind an RPC layer that the ranking
// tier calls once per request. This package provides a minimal JSON/HTTP
// equivalent so the store can be exercised end to end (and load-tested) as a
// network service:
//
//	GET  /healthz                        liveness probe (+ read-only flag and snapshot seq)
//	GET  /v1/tables                      table inventory
//	GET  /v1/lookup?table=T&id=N         single embedding vector
//	POST /v1/batch                       {"table": "...", "ids": [...]}
//	POST /v1/request                     {"lookups": [[...], [...], ...]} (one ID list per table)
//	POST /v1/update                      {"table": "...", "id": N, "vector": [...]} single-vector update
//	GET  /metrics                        Prometheus text exposition of the node's metric registry
//	GET  /v1/stats                       the same registry as JSON: series name -> label set -> value
//	POST /v1/adapt                       {"action": "start"|"stop"|"epoch", ...} adaptation control
//	GET  /v1/replica/seq                 snapshot sequence number (replica polling)
//	GET  /v1/replica/snapshot            chunked, CRC'd snapshot stream (replica bootstrap)
//	GET  /v1/replica/updates             incremental update-record stream (replica tailing)
//
// net/http serves each request on its own goroutine; the store's sharded
// caches let those goroutines proceed in parallel, so the service scales
// with GOMAXPROCS instead of serializing lookups behind a per-table lock.
// The server tracks request count, error count, in-flight requests and
// request latency, exported as the bandana_http_* families.
//
// The served store can be replaced at runtime with SwapStore (how a replica
// follows its primary across re-syncs): each request pins the store it
// started with, and a swapped-out store is closed only after its last
// request drains.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/core"
	"bandana/internal/metrics"
	"bandana/internal/wire"
)

// MaxBatchIDs bounds the ids accepted by one /v1/batch call (and the total
// lookups of one /v1/request): a single oversized request would otherwise
// monopolise the block-read path and balloon the response. Clients split
// larger batches; the router never exceeds it per node because it only
// subdivides client batches.
const MaxBatchIDs = 8192

// Server wraps a core.Store with HTTP handlers and an optional binary wire
// protocol (bwp) listener, see ServeWire.
type Server struct {
	ref   atomic.Pointer[storeRef]
	mux   *http.ServeMux
	start time.Time

	wire        *wire.Server
	wireEnabled atomic.Bool

	requests metrics.Counter
	errors   metrics.Counter
	inflight metrics.Gauge
	swaps    metrics.Counter
	latency  *metrics.Histogram
	// serialize times JSON response encoding on the serving handlers (the
	// "serialize" stage of the latency decomposition).
	serialize *metrics.Histogram

	// Slow-request logging (see SetSlowRequestThreshold). slowNS == 0 means
	// disabled; emission is token-bucket limited so an overloaded server
	// logs a sample of its slow requests instead of one line per request.
	slowNS         atomic.Int64
	slowSuppressed atomic.Int64
	slowMu         sync.Mutex
	slowTokens     float64
	slowLast       time.Time

	// export caches the last built snapshot so a replica's chunked download
	// does not rebuild the image per chunk; invalidated when the store's
	// snapshot seq moves or the served store itself is swapped
	// (exportStore pins which store the cache was built from).
	exportMu    sync.Mutex
	export      *core.Snapshot
	exportStore *core.Store
}

// New creates a Server around an opened (and usually trained) store.
func New(store *core.Store) *Server {
	s := &Server{
		mux:       http.NewServeMux(),
		start:     time.Now(),
		latency:   metrics.NewLatencyHistogram(),
		serialize: metrics.NewHistogram(0.01, 1.05, 1e6),
	}
	s.ref.Store(&storeRef{store: store})
	s.wire = &wire.Server{Backend: wireBackend{s}, MaxBatch: MaxBatchIDs}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/tables", s.handleTables)
	s.mux.HandleFunc("GET /v1/lookup", s.handleLookup)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/request", s.handleRequest)
	s.mux.HandleFunc("POST /v1/update", s.handleUpdate)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/adapt", s.handleAdapt)
	s.mux.HandleFunc("GET /v1/replica/seq", s.handleReplicaSeq)
	s.mux.HandleFunc("GET /v1/replica/snapshot", s.handleReplicaSnapshot)
	s.mux.HandleFunc("GET /v1/replica/updates", s.handleReplicaUpdates)
	return s
}

// storeCtxKey carries the request's pinned store through the context.
type storeCtxKey struct{}

// traceCtxKey carries the request's stage trace (slow-request logging only).
type traceCtxKey struct{}

// requestTrace is one HTTP request's stage breakdown: the store-side stages
// plus the server-side serialization stage.
type requestTrace struct {
	core.StageTrace
	SerializeUS float64
}

// reqTrace returns the request's stage trace, or nil when slow-request
// logging is off (the serving handlers then skip per-request stage timing).
func (s *Server) reqTrace(r *http.Request) *requestTrace {
	rt, _ := r.Context().Value(traceCtxKey{}).(*requestTrace)
	return rt
}

// stageTrace unwraps the core-level trace for handlers that pass it to the
// store's *Traced lookup variants; nil when tracing is off.
func stageTrace(rt *requestTrace) *core.StageTrace {
	if rt == nil {
		return nil
	}
	return &rt.StageTrace
}

// store returns the store pinned to this request by the instrument
// middleware. Handlers must use it instead of CurrentStore so a concurrent
// SwapStore cannot close their store mid-request.
func (s *Server) store(r *http.Request) *core.Store {
	return r.Context().Value(storeCtxKey{}).(*core.Store)
}

// Handler returns the HTTP handler (for use with http.Server or httptest).
// Every request is instrumented with the server's request metrics.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// statusRecorder captures the response status for error accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// instrument wraps next with request counting, in-flight tracking and
// latency measurement.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Inc()
		s.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		ref := s.acquireRef()
		slowNS := s.slowNS.Load()
		var rt *requestTrace
		if slowNS > 0 {
			// With slow logging armed, every request carries a trace so a
			// request discovered to be slow at the end has its breakdown.
			// The store times all stages under a trace (a handful of clock
			// reads — noise next to a multi-millisecond threshold).
			rt = &requestTrace{}
		}
		// Deferred so a panicking handler (net/http recovers it per
		// connection) cannot leak the in-flight count, the store ref or
		// drop the request from the latency/error metrics.
		defer func() {
			ref.release()
			s.inflight.Add(-1)
			if rec.status >= 400 {
				s.errors.Inc()
			}
			elapsed := time.Since(start)
			s.latency.ObserveDuration(elapsed)
			if slowNS > 0 && elapsed >= time.Duration(slowNS) {
				s.logSlowRequest(r, rec.status, elapsed, rt)
			}
		}()
		ctx := context.WithValue(r.Context(), storeCtxKey{}, ref.store)
		if rt != nil {
			ctx = context.WithValue(ctx, traceCtxKey{}, rt)
		}
		r = r.WithContext(ctx)
		next.ServeHTTP(rec, r)
	})
}

// jsonBufPool recycles response-encoding buffers across requests: the hot
// lookup/batch handlers would otherwise allocate a fresh buffer (growing
// through several sizes for large batches) per response. Buffers that grew
// beyond maxPooledJSONBuf are dropped instead of pinned in the pool forever.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledJSONBuf = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledJSONBuf {
		jsonBufPool.Put(buf)
	}
}

// writeServingJSON is writeJSON for the serving handlers (lookup, batch,
// request): it additionally times the response encode + write as the
// "serialize" stage, feeding the server's stage histogram and, when slow
// logging armed a trace, the request's breakdown.
func (s *Server) writeServingJSON(w http.ResponseWriter, rt *requestTrace, status int, v any) {
	start := time.Now()
	writeJSON(w, status, v)
	d := float64(time.Since(start)) / float64(time.Microsecond)
	s.serialize.Observe(d)
	if rt != nil {
		rt.SerializeUS += d
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	store := s.store(r)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"readOnly":    store.ReadOnly(),
		"snapshotSeq": store.SnapshotSeq(),
	})
}

// tableInfo describes one table in the inventory response.
type tableInfo struct {
	Index           int    `json:"index"`
	Name            string `json:"name"`
	CacheVectors    int    `json:"cacheVectors"`
	Prefetching     bool   `json:"prefetching"`
	Threshold       uint32 `json:"threshold"`
	DemandThreshold uint32 `json:"demandThreshold"`
	PinnedVectors   int    `json:"pinnedVectors"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	stats := s.store(r).Stats()
	out := make([]tableInfo, len(stats))
	for i, st := range stats {
		out[i] = tableInfo{
			Index:           i,
			Name:            st.Name,
			CacheVectors:    st.CacheVectors,
			Prefetching:     st.Prefetching,
			Threshold:       st.Threshold,
			DemandThreshold: st.DemandThreshold,
			PinnedVectors:   st.PinnedVectors,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// lookupResponse carries one embedding vector.
type lookupResponse struct {
	Table  string    `json:"table"`
	ID     uint32    `json:"id"`
	Vector []float32 `json:"vector"`
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	tableName := r.URL.Query().Get("table")
	idStr := r.URL.Query().Get("id")
	if tableName == "" || idStr == "" {
		writeError(w, http.StatusBadRequest, "query parameters 'table' and 'id' are required")
		return
	}
	id, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid id %q", idStr)
		return
	}
	store := s.store(r)
	idx, err := store.TableIndex(tableName)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	rt := s.reqTrace(r)
	vecs, err := store.LookupBatchTraced(idx, []uint32{uint32(id)}, stageTrace(rt))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.writeServingJSON(w, rt, http.StatusOK, lookupResponse{Table: tableName, ID: uint32(id), Vector: vecs[0]})
}

// batchRequest asks for several vectors from one table.
type batchRequest struct {
	Table string   `json:"table"`
	IDs   []uint32 `json:"ids"`
}

// batchResponse carries the vectors of a batch lookup.
type batchResponse struct {
	Table   string      `json:"table"`
	Vectors [][]float32 `json:"vectors"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if req.Table == "" || len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, "'table' and non-empty 'ids' are required")
		return
	}
	if len(req.IDs) > MaxBatchIDs {
		writeError(w, http.StatusBadRequest, "batch of %d ids exceeds the limit of %d (split the request)", len(req.IDs), MaxBatchIDs)
		return
	}
	store := s.store(r)
	idx, err := store.TableIndex(req.Table)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	rt := s.reqTrace(r)
	vecs, err := store.LookupBatchTraced(idx, req.IDs, stageTrace(rt))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.writeServingJSON(w, rt, http.StatusOK, batchResponse{Table: req.Table, Vectors: vecs})
}

// rankingRequest is one full recommendation request: the vector IDs to read
// from each table, by table index.
type rankingRequest struct {
	Lookups [][]uint32 `json:"lookups"`
}

// rankingResponse groups the returned vectors by table.
type rankingResponse struct {
	Tables [][][]float32 `json:"tables"`
}

func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	var req rankingRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	total := 0
	for _, ids := range req.Lookups {
		total += len(ids)
	}
	if total > MaxBatchIDs {
		writeError(w, http.StatusBadRequest, "request with %d lookups exceeds the limit of %d (split the request)", total, MaxBatchIDs)
		return
	}
	store := s.store(r)
	if n := store.NumTables(); len(req.Lookups) > n {
		writeError(w, http.StatusBadRequest, "core: request has %d tables, store has %d", len(req.Lookups), n)
		return
	}
	rt := s.reqTrace(r)
	tr := stageTrace(rt)
	out := make([][][]float32, len(req.Lookups))
	for ti, ids := range req.Lookups {
		if len(ids) == 0 {
			continue // an empty table's entry stays null
		}
		vecs, err := store.LookupBatchTraced(ti, ids, tr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		out[ti] = vecs
	}
	s.writeServingJSON(w, rt, http.StatusOK, rankingResponse{Tables: out})
}

// adaptRequest controls the adaptation engine.
type adaptRequest struct {
	// Action: "start" (install recorders and, with IntervalMS > 0, the
	// background loop), "stop", or "epoch" (run one epoch synchronously and
	// return its report).
	Action     string `json:"action"`
	IntervalMS int64  `json:"intervalMS"`
	// Optional tuning knobs for "start"; zero values use the engine
	// defaults.
	MinQueries          int `json:"minQueries"`
	RelayoutEvery       int `json:"relayoutEvery"`
	RelayoutBlockBudget int `json:"relayoutBlockBudget"`
	SampleEvery         int `json:"sampleEvery"`
}

func (s *Server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	var req adaptRequest
	// Unknown fields are errors: a client still sending a removed knob must
	// hear that it was ignored, not silently get the default behaviour.
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	store := s.store(r)
	switch req.Action {
	case "start":
		err := store.StartAdaptation(core.AdaptOptions{
			Interval:            time.Duration(req.IntervalMS) * time.Millisecond,
			MinQueries:          req.MinQueries,
			RelayoutEvery:       req.RelayoutEvery,
			RelayoutBlockBudget: req.RelayoutBlockBudget,
			SampleEvery:         req.SampleEvery,
		})
		if err != nil {
			// Engine-already-running is a conflict, a read-only store
			// (replica) is forbidden.
			status := http.StatusConflict
			if errors.Is(err, core.ErrReadOnly) {
				status = http.StatusForbidden
			}
			writeError(w, status, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, store.AdaptationStats())
	case "stop":
		store.StopAdaptation()
		writeJSON(w, http.StatusOK, store.AdaptationStats())
	case "epoch":
		rep, err := store.AdaptNow()
		if err != nil {
			// "Not started" is the caller's sequencing problem; anything
			// else (persist I/O, tuning, migration failures) is ours.
			status := http.StatusInternalServerError
			if errors.Is(err, core.ErrAdaptationNotStarted) {
				status = http.StatusConflict
			}
			writeError(w, status, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	default:
		writeError(w, http.StatusBadRequest, "unknown action %q (want start, stop or epoch)", req.Action)
	}
}
