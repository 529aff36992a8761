package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"bandana/internal/core"
	"bandana/internal/nvm"
	"bandana/internal/server"
	"bandana/internal/table"
	"bandana/internal/wire"
)

// servePoint is one (transport, batch size) measurement of the serve sweep.
type servePoint struct {
	Transport          string  `json:"transport"` // local, bwp or http
	Batch              int     `json:"batch"`
	Requests           int     `json:"requests"`
	VectorsPerSec      float64 `json:"vectorsPerSec"`
	MeanBatchLatencyUS float64 `json:"meanBatchLatencyUS"`
	P90BatchLatencyUS  float64 `json:"p90BatchLatencyUS"`
	P99BatchLatencyUS  float64 `json:"p99BatchLatencyUS"`
	P999BatchLatencyUS float64 `json:"p999BatchLatencyUS"`
	// AllocsPerOp is process-wide heap allocations per batch over the
	// measurement window (clients + server side for the loopback
	// transports).
	AllocsPerOp float64 `json:"allocsPerOp"`
	// GCPauseP99US is the p99 GC stop-the-world pause observed during the
	// measurement window; 0 when no GC cycle ran.
	GCPauseP99US float64 `json:"gcPauseP99US"`
}

// serveSweepResult is the --mode serve-sweep section of the JSON artifact.
type serveSweepResult struct {
	Table      string `json:"table"`
	Vectors    int    `json:"vectors"`
	Dim        int    `json:"dim"`
	Concurrent int    `json:"concurrentClients"`
	// ByteIdentical records the pinned equivalence property: every sampled
	// vector decoded off the wire matched the local float path bit for bit
	// (the sweep aborts if not).
	ByteIdentical bool         `json:"byteIdentical"`
	Points        []servePoint `json:"points"`
	// BwpSpeedupAtBatch64 is bwp throughput / HTTP JSON throughput at batch
	// size 64 (the paper's production batch shape).
	BwpSpeedupAtBatch64 float64 `json:"bwpSpeedupAtBatch64"`
}

type serveSweepOptions struct {
	Backend  string
	DataDir  string
	Sync     string
	Seed     int64
	Requests int // batches measured per (transport, batch size) point
	Jobs     int // concurrent client goroutines
}

var serveSweepBatches = []int{8, 64, 256}

const (
	serveSweepVectors = 8192
	serveSweepDim     = 64 // the paper's production vector shape (fp16 x 64)
	serveSweepTable   = "emb"
)

// runServeSweep measures end-to-end serving throughput of the three lookup
// paths — in-process, bwp over TCP, JSON over HTTP — against one warmed
// store, after pinning that all three return bit-identical vectors.
func runServeSweep(opts serveSweepOptions) (*serveSweepResult, error) {
	if opts.Requests <= 0 {
		opts.Requests = 500
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 4
	}

	g := table.Generate(serveSweepTable, table.GenerateOptions{
		NumVectors: serveSweepVectors, Dim: serveSweepDim, NumClusters: 64, Seed: opts.Seed,
	})
	cfg := core.Config{
		Tables: []*table.Table{g.Table},
		// Cache everything: the sweep measures the serving transports, not
		// the NVM miss path (qd-sweep covers that).
		DRAMBudgetVectors: serveSweepVectors,
		Seed:              opts.Seed,
	}
	if opts.Backend == core.BackendFile {
		cfg.Backend = core.BackendFile
		dir := opts.DataDir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "nvmbench-serve-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
		}
		cfg.DataDir = filepath.Join(dir, "serve-store")
		syncMode, err := nvm.ParseSyncMode(opts.Sync)
		if err != nil {
			return nil, err
		}
		cfg.Sync = syncMode
	}
	store, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer store.Close()

	srv := server.New(store)
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer wireLn.Close()
	go srv.ServeWire(wireLn)
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(httpLn)
	defer httpSrv.Close()
	httpURL := "http://" + httpLn.Addr().String()

	// Warm the cache (and its raw fp16 views) over the full id space so
	// every transport serves DRAM hits.
	warm := make([]uint32, 256)
	for base := uint32(0); base < serveSweepVectors; base += uint32(len(warm)) {
		for i := range warm {
			warm[i] = base + uint32(i)
		}
		if _, err := store.LookupBatchRaw(0, warm); err != nil {
			return nil, err
		}
	}

	wc, err := wire.Dial(wireLn.Addr().String(), wire.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	ctx := context.Background()
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: opts.Jobs}}

	local := func(ids []uint32) ([][]float32, error) { return store.LookupBatch(0, ids) }
	bwp := func(ids []uint32) ([][]float32, error) { return wc.LookupBatchF32(ctx, serveSweepTable, ids) }
	httpJSON := func(ids []uint32) ([][]float32, error) {
		body, err := json.Marshal(map[string]any{"table": serveSweepTable, "ids": ids})
		if err != nil {
			return nil, err
		}
		resp, err := httpc.Post(httpURL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("/v1/batch: %s", resp.Status)
		}
		var out struct {
			Vectors [][]float32 `json:"vectors"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		return out.Vectors, nil
	}

	// Pin the equivalence property before timing anything: the three paths
	// must serve bit-identical float32s for the same ids.
	rng := rand.New(rand.NewSource(opts.Seed))
	for round := 0; round < 8; round++ {
		ids := make([]uint32, 64)
		for i := range ids {
			ids[i] = uint32(rng.Intn(serveSweepVectors))
		}
		want, err := local(ids)
		if err != nil {
			return nil, err
		}
		for _, path := range []struct {
			name string
			fn   func([]uint32) ([][]float32, error)
		}{{"bwp", bwp}, {"http", httpJSON}} {
			got, err := path.fn(ids)
			if err != nil {
				return nil, fmt.Errorf("%s equivalence batch: %w", path.name, err)
			}
			for i := range ids {
				if len(got[i]) != len(want[i]) {
					return nil, fmt.Errorf("%s: id %d came back with dim %d, want %d", path.name, ids[i], len(got[i]), len(want[i]))
				}
				for k := range want[i] {
					if math.Float32bits(got[i][k]) != math.Float32bits(want[i][k]) {
						return nil, fmt.Errorf("%s: id %d elem %d = %g, local path %g (not byte-identical)",
							path.name, ids[i], k, got[i][k], want[i][k])
					}
				}
			}
		}
	}

	res := &serveSweepResult{
		Table: serveSweepTable, Vectors: serveSweepVectors, Dim: serveSweepDim,
		Concurrent: opts.Jobs, ByteIdentical: true,
	}
	transports := []struct {
		name string
		fn   func([]uint32) ([][]float32, error)
	}{{"local", local}, {"bwp", bwp}, {"http", httpJSON}}
	perf := make([][]float64, len(transports)) // vectors/sec by [transport][batch]
	for i := range perf {
		perf[i] = make([]float64, len(serveSweepBatches))
	}
	for ti, tr := range transports {
		for bi, batch := range serveSweepBatches {
			point, err := measureServePoint(tr.fn, batch, opts.Requests, opts.Jobs, opts.Seed)
			if err != nil {
				return nil, fmt.Errorf("%s batch %d: %w", tr.name, batch, err)
			}
			point.Transport = tr.name
			res.Points = append(res.Points, point)
			perf[ti][bi] = point.VectorsPerSec
		}
	}
	for bi, batch := range serveSweepBatches {
		if batch == 64 && perf[2][bi] > 0 {
			res.BwpSpeedupAtBatch64 = perf[1][bi] / perf[2][bi]
		}
	}
	return res, nil
}

// measureServePoint times `requests` batches of size `batch` across `jobs`
// concurrent clients and reports throughput and batch latency.
func measureServePoint(fn func([]uint32) ([][]float32, error), batch, requests, jobs int, seed int64) (servePoint, error) {
	perWorker := requests / jobs
	if perWorker == 0 {
		perWorker = 1
	}
	total := perWorker * jobs

	var mu sync.Mutex
	latencies := make([]float64, 0, total)
	var firstErr error
	var wg sync.WaitGroup
	pauses0 := readGCPauses()
	mallocs0 := readMallocs()
	start := time.Now()
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			ids := make([]uint32, batch)
			local := make([]float64, 0, perWorker)
			for r := 0; r < perWorker; r++ {
				for i := range ids {
					ids[i] = uint32(rng.Intn(serveSweepVectors))
				}
				t0 := time.Now()
				vecs, err := fn(ids)
				if err == nil && len(vecs) != batch {
					err = fmt.Errorf("got %d vectors for %d ids", len(vecs), batch)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	mallocs1 := readMallocs()
	pauses1 := readGCPauses()
	if firstErr != nil {
		return servePoint{}, firstErr
	}

	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	p := servePoint{
		Batch:         batch,
		Requests:      total,
		VectorsPerSec: float64(total*batch) / elapsed.Seconds(),
		AllocsPerOp:   float64(mallocs1-mallocs0) / float64(total),
		GCPauseP99US:  gcPauseP99US(pauses0, pauses1),
	}
	if len(latencies) > 0 {
		p.MeanBatchLatencyUS = sum / float64(len(latencies))
		p.P90BatchLatencyUS = latencies[(len(latencies)*90)/100]
		p.P99BatchLatencyUS = latencies[(len(latencies)*99)/100]
		p.P999BatchLatencyUS = latencies[(len(latencies)*999)/1000]
	}
	return p, nil
}

// readMallocs returns the cumulative heap allocation count.
func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// readGCPauses snapshots the cumulative /gc/pauses:seconds histogram.
func readGCPauses() *rtmetrics.Float64Histogram {
	sample := []rtmetrics.Sample{{Name: "/gc/pauses:seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		return nil
	}
	h := sample[0].Value.Float64Histogram()
	// Copy: the runtime may reuse the returned buckets on the next Read.
	return &rtmetrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

// gcPauseP99US computes the p99 pause in microseconds from the histogram
// delta between two cumulative snapshots. Returns 0 when no pause occurred
// in the window (or the metric is unsupported).
func gcPauseP99US(before, after *rtmetrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(after.Counts) != len(before.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range delta {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total)*0.99 + 0.5)
	if target > total {
		target = total
	}
	var cum uint64
	for i, d := range delta {
		cum += d
		if cum >= target && d > 0 {
			// Bucket i spans (Buckets[i], Buckets[i+1]]; report the upper
			// bound. The first/last buckets can be infinite — fall back to
			// the finite edge.
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 0) || math.IsNaN(hi) {
				hi = after.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}
