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
//	GET  /v1/stats                       per-table serving stats + NVM device stats + server stats + runtime + adaptation stats
//	POST /v1/adapt                       {"action": "start"|"stop"|"epoch", ...} adaptation control
//	GET  /v1/replica/seq                 snapshot sequence number (replica polling)
//	GET  /v1/replica/snapshot            chunked, CRC'd snapshot stream (replica bootstrap)
//	GET  /v1/replica/updates             incremental update-record stream (replica tailing)
//
// net/http serves each request on its own goroutine; the store's sharded
// caches let those goroutines proceed in parallel, so the service scales
// with GOMAXPROCS instead of serializing lookups behind a per-table lock.
// The server tracks request count, error count, in-flight requests and
// request latency, reported under "server" in /v1/stats.
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
	"bandana/internal/iosched"
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

	// registry renders GET /metrics (built lazily on first scrape).
	registryOnce sync.Once
	registry     *metrics.Registry

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
	vec, err := store.LookupTraced(idx, uint32(id), stageTrace(rt))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.writeServingJSON(w, rt, http.StatusOK, lookupResponse{Table: tableName, ID: uint32(id), Vector: vec})
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
	rt := s.reqTrace(r)
	out, err := s.store(r).ServeRequestTraced(core.Request(req.Lookups), stageTrace(rt))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeServingJSON(w, rt, http.StatusOK, rankingResponse{Tables: out})
}

// statsResponse bundles per-table, device, I/O scheduler, server, store,
// runtime and adaptation statistics.
type statsResponse struct {
	Tables     []core.TableStats    `json:"tables"`
	Device     deviceStats          `json:"device"`
	IOSched    iosched.Stats        `json:"iosched"`
	Wire       wireStats            `json:"wire"`
	Server     serverStats          `json:"server"`
	Store      storeStats           `json:"store"`
	UpdateLog  core.UpdateLogStats  `json:"updateLog"`
	Runtime    metrics.RuntimeStats `json:"runtime"`
	Adaptation adaptationStats      `json:"adaptation"`
}

// storeStats describes the served store itself (as opposed to its tables or
// device): replication observability lives here.
type storeStats struct {
	// ReadOnly is true on a replica serving a bootstrapped snapshot.
	ReadOnly bool `json:"readOnly"`
	// SnapshotSeq identifies the servable image; replicas re-sync when the
	// primary's value passes theirs.
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// Swaps counts SwapStore calls (replica re-syncs) since the server
	// started.
	Swaps int64 `json:"swaps"`
	// DataDir is the persistence directory ("" for the mem backend).
	DataDir string `json:"dataDir,omitempty"`
}

// adaptationStats is the JSON rendering of core.AdaptationStats (documented
// in the README's /v1/stats schema).
type adaptationStats struct {
	Enabled             bool                   `json:"enabled"`
	Background          bool                   `json:"background"`
	IntervalMS          int64                  `json:"intervalMS"`
	EpochsCompleted     int64                  `json:"epochsCompleted"`
	Relayouts           int64                  `json:"relayouts"`
	LastEpochDurationMS float64                `json:"lastEpochDurationMS"`
	LastRelayoutMS      float64                `json:"lastRelayoutDurationMS"`
	LastError           string                 `json:"lastError,omitempty"`
	Tables              []tableAdaptationStats `json:"tables,omitempty"`
}

type tableAdaptationStats struct {
	Name            string  `json:"name"`
	EpochLookups    int64   `json:"epochLookups"`
	EpochHits       int64   `json:"epochHits"`
	EpochHitRate    float64 `json:"epochHitRate"`
	CacheVectors    int     `json:"cacheVectors"`
	Threshold       uint32  `json:"threshold"`
	DemandThreshold uint32  `json:"demandThreshold"`
	Prefetching     bool    `json:"prefetching"`
	RecordedQueries int     `json:"recordedQueries"`
	Relayouts       int64   `json:"relayouts"`
}

func renderAdaptationStats(st core.AdaptationStats) adaptationStats {
	out := adaptationStats{
		Enabled:             st.Enabled,
		Background:          st.Background,
		IntervalMS:          st.Interval.Milliseconds(),
		EpochsCompleted:     st.EpochsCompleted,
		Relayouts:           st.Relayouts,
		LastEpochDurationMS: float64(st.LastEpochDuration) / 1e6,
		LastRelayoutMS:      float64(st.LastRelayoutDuration) / 1e6,
		LastError:           st.LastError,
	}
	for _, ts := range st.Tables {
		out.Tables = append(out.Tables, tableAdaptationStats{
			Name:            ts.Name,
			EpochLookups:    ts.EpochLookups,
			EpochHits:       ts.EpochHits,
			EpochHitRate:    ts.EpochHitRate,
			CacheVectors:    ts.CacheVectors,
			Threshold:       ts.Threshold,
			DemandThreshold: ts.DemandThreshold,
			Prefetching:     ts.Prefetching,
			RecordedQueries: ts.RecordedQueries,
			Relayouts:       ts.Relayouts,
		})
	}
	return out
}

// serverStats reports the HTTP layer's own counters. Serialize is the
// response-encoding stage of the serving handlers (lookup/batch/request),
// in microseconds.
type serverStats struct {
	Requests  int64            `json:"requests"`
	Errors    int64            `json:"errors"`
	InFlight  int64            `json:"inFlight"`
	Latency   metrics.Snapshot `json:"latencyUS"`
	Serialize metrics.Snapshot `json:"serializeUS"`
}

type deviceStats struct {
	BlocksRead    int64   `json:"blocksRead"`
	BlocksWritten int64   `json:"blocksWritten"`
	BytesRead     int64   `json:"bytesRead"`
	DriveWrites   float64 `json:"driveWrites"`
	EnduranceDWPD float64 `json:"enduranceDWPD"`
	// ReadsSubmitted/ReadBatches/AvgReadBatch/MaxQueueDepth/CoalescedReads
	// describe the read path's batching: how many read intents were served,
	// in how many device dispatches, at what realized queue depth, and how
	// many reads the I/O scheduler coalesced away entirely.
	ReadsSubmitted int64   `json:"readsSubmitted"`
	ReadBatches    int64   `json:"readBatches"`
	AvgReadBatch   float64 `json:"avgReadBatch"`
	MaxQueueDepth  int64   `json:"maxQueueDepth"`
	CoalescedReads int64   `json:"coalescedReads"`
	// Backend names the block store behind the device ("mem" or "file");
	// the write/flush counters are non-zero for the file backend only.
	// DirectIO reports whether the block file is open with O_DIRECT (false
	// also when it was requested but the filesystem fell back to buffered
	// I/O). ReadPath is how the file backend reads a block: "mmap" (in place
	// in its mapping of the data region — the serving path's misses — or a
	// copy out of it, buffered I/O) or "pread" (direct I/O). DataWrites
	// counts single-block in-place writes: compaction's read-modify-writes.
	Backend    string `json:"backend"`
	DirectIO   bool   `json:"directIO"`
	ReadPath   string `json:"readPath,omitempty"`
	DataWrites int64  `json:"dataWrites"`
	Flushes    int64  `json:"flushes"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	store := s.store(r)
	dev := store.DeviceStats()
	sched, _ := store.IOSchedStats()
	writeJSON(w, http.StatusOK, statsResponse{
		Tables: store.Stats(),
		Device: deviceStats{
			BlocksRead:     dev.BlocksRead,
			BlocksWritten:  dev.BlocksWritten,
			BytesRead:      dev.BytesRead,
			DriveWrites:    dev.DriveWrites,
			EnduranceDWPD:  dev.EnduranceDWPD,
			ReadsSubmitted: dev.ReadsSubmitted,
			ReadBatches:    dev.ReadBatches,
			AvgReadBatch:   dev.AvgReadBatch,
			MaxQueueDepth:  dev.MaxQueueDepth,
			CoalescedReads: dev.CoalescedReads,
			Backend:        dev.Store.Backend,
			DirectIO:       dev.Store.DirectIO,
			ReadPath:       dev.Store.ReadPath,
			DataWrites:     dev.Store.DataWrites,
			Flushes:        dev.Store.Flushes,
		},
		IOSched: sched,
		Wire:    s.renderWireStats(),
		Server: serverStats{
			Requests:  s.requests.Value(),
			Errors:    s.errors.Value(),
			InFlight:  s.inflight.Value(),
			Latency:   s.latency.Snapshot(),
			Serialize: s.serialize.Snapshot(),
		},
		Store: storeStats{
			ReadOnly:    store.ReadOnly(),
			SnapshotSeq: store.SnapshotSeq(),
			Swaps:       s.swaps.Value(),
			DataDir:     store.DataDir(),
		},
		UpdateLog:  store.UpdateLogStats(),
		Runtime:    metrics.ReadRuntime(s.start),
		Adaptation: renderAdaptationStats(store.AdaptationStats()),
	})
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
		writeJSON(w, http.StatusOK, renderAdaptationStats(store.AdaptationStats()))
	case "stop":
		store.StopAdaptation()
		writeJSON(w, http.StatusOK, renderAdaptationStats(store.AdaptationStats()))
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
