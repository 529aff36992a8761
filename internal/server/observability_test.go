package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bandana/internal/core"
	"bandana/internal/metrics"
	"bandana/internal/nvm"
	"bandana/internal/table"
	"bandana/internal/trace"
	"bandana/internal/wire"
)

// newObsServer is newTestServer but also returns the Server so tests can arm
// slow-request logging.
func newObsServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	return newObsServerOn(t, nil)
}

// newObsServerOn is newObsServer over dev (nil: a device of the store's own).
// The table is 16 blocks of 128 vectors.
func newObsServerOn(t *testing.T, dev *nvm.Device) (*httptest.Server, *Server) {
	t.Helper()
	g := table.Generate("tA", table.GenerateOptions{
		NumVectors: 2048, Dim: 16, NumClusters: 32, Seed: 1,
	})
	store, err := core.Open(core.Config{Tables: []*table.Table{g.Table}, DRAMBudgetVectors: 256, Seed: 1, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := New(store)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// pairStore is a MemStore whose batched reads, while armed, each wait (up to
// a deadline) until two of them are in flight at once.
type pairStore struct {
	*nvm.MemStore
	armed  atomic.Bool
	mu     sync.Mutex
	inside int
	met    chan struct{}
}

func (p *pairStore) ReadBlocks(idxs []int, dst []byte) error {
	if p.armed.Load() {
		p.mu.Lock()
		if p.inside++; p.inside == 2 {
			close(p.met)
		}
		p.mu.Unlock()
		select {
		case <-p.met:
		case <-time.After(5 * time.Second):
		}
		p.mu.Lock()
		p.inside--
		p.mu.Unlock()
	}
	return p.MemStore.ReadBlocks(idxs, dst)
}

// TestMetricsEndpoint drives traffic over the HTTP path and checks the
// exposition validates and carries non-zero stage histogram counts, and that
// two concurrent cold batches show as two issue slots held at once.
func TestMetricsEndpoint(t *testing.T) {
	ps := &pairStore{MemStore: nvm.NewMemStore(16), met: make(chan struct{})}
	ts, _ := newObsServerOn(t, nvm.NewDevice(nvm.DeviceConfig{Store: ps, Seed: 1}))
	// Mixed traffic: hits and misses so every stage observes something.
	for id := 0; id < 512; id++ {
		if code := getJSON(t, ts.URL+"/v1/lookup?table=tA&id="+strconv.Itoa(id), nil); code != http.StatusOK {
			t.Fatalf("lookup %d: status %d", id, code)
		}
	}
	postJSON(t, ts.URL+"/v1/batch", batchRequest{Table: "tA", IDs: []uint32{1, 2, 3, 700, 701}}, nil)
	// Two cold batches on blocks nothing has read yet (8 and 11), at once:
	// each client's misses are read by its own handler, both in flight
	// together.
	ps.armed.Store(true)
	var wg sync.WaitGroup
	for _, ids := range [][]uint32{{1100, 1101, 1102}, {1500, 1501}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(batchRequest{Table: "tA", IDs: ids})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("cold batch %v: status %d", ids, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	ps.armed.Store(false)
	select {
	case <-ps.met:
	default:
		t.Fatal("the two cold batches' block reads were never in flight at once")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	n, err := metrics.ValidateExposition(io.TeeReader(resp.Body, &buf))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	if n < 50 {
		t.Fatalf("only %d samples", n)
	}
	out := buf.String()
	// The stage histograms must be present with real counts: misses feed
	// device_service and decode; probe is sampled but 512 lookups guarantee
	// several draws; serialize observes every serving response.
	for _, stage := range []string{"device_service", "decode", "cache_probe", "serialize"} {
		marker := `stage="` + stage + `"`
		if !strings.Contains(out, marker) {
			t.Errorf("exposition missing stage %s", stage)
		}
	}
	for _, want := range []string{
		"bandana_stage_duration_us_count{table=\"tA\",stage=\"device_service\"}",
		"bandana_table_lookups_total{table=\"tA\"} 522",
		"bandana_http_requests_total",
		"bandana_device_blocks_read_total",
		// Every read has completed: no slot is held.
		"bandana_iosched_inflight 0\n",
		"bandana_iosched_queue_wait_us_count ",
		"bandana_table_cache_free_slots{table=\"tA\"}",
		"bandana_table_cache_limbo_slots{table=\"tA\"}",
		"bandana_table_prefetch_adds_total{table=\"tA\"} 0\n",
		"bandana_table_effective_bandwidth{table=\"tA\"} ",
		"bandana_table_predicted_hit_ratio{table=\"tA\"} 0\n",
		"bandana_table_predicted_lookups_per_block_read{table=\"tA\"} 0\n",
		// DRAM attribution: 2048 vectors x (order + inverse) x 4 B, nothing
		// trained, updated or recorded yet, and a cache that has filled.
		"bandana_table_dram_bytes{table=\"tA\",component=\"layout\"} 16384\n",
		"bandana_table_dram_bytes{table=\"tA\",component=\"counts\"} 0\n",
		"bandana_table_dram_bytes{table=\"tA\",component=\"admit_bits\"} 0\n",
		"bandana_table_dram_bytes{table=\"tA\",component=\"overlay\"} 0\n",
		"bandana_table_dram_bytes{table=\"tA\",component=\"cache_arena\"} ",
		"bandana_table_dram_bytes{table=\"tA\",component=\"cache_index\"} ",
		"bandana_table_dram_bytes{table=\"tA\",component=\"recorder\"} 0\n",
		// No layout was installed, and this open had none to redo.
		"bandana_layout_installs_total{table=\"tA\"} 0\n",
		"bandana_layout_install_seconds 0\n",
		"bandana_store_recovered_migration 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, component := range []string{"cache_arena", "cache_index"} {
		if strings.Contains(out, "bandana_table_dram_bytes{table=\"tA\",component=\""+component+"\"} 0\n") {
			t.Errorf("%s bytes are zero after 512 lookups", component)
		}
	}
	if strings.Contains(out, "bandana_stage_duration_us_count{table=\"tA\",stage=\"device_service\"} 0\n") {
		t.Errorf("device_service stage count is zero after misses:\n%s", grepLines(out, "device_service"))
	}
	if m := regexp.MustCompile(`(?m)^bandana_iosched_inflight_max (\d+)$`).FindStringSubmatch(out); m == nil {
		t.Errorf("exposition has no bandana_iosched_inflight_max:\n%s", grepLines(out, "iosched"))
	} else if n, _ := strconv.Atoi(m[1]); n < 2 {
		t.Errorf("bandana_iosched_inflight_max %d after two concurrent cold batches, want >= 2", n)
	}
	for _, gone := range []string{"bandana_iosched_token_wait_us", "bandana_iosched_bounced_batches_total"} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition still carries %s", gone)
		}
	}
	if strings.Contains(out, "bandana_stage_duration_us_count{table=\"tA\",stage=\"cache_probe\"} 0\n") {
		t.Errorf("cache_probe stage count is zero after 512 lookups:\n%s", grepLines(out, "cache_probe"))
	}
	if strings.Contains(out, "bandana_stage_duration_us_count{stage=\"serialize\"} 0\n") {
		t.Errorf("serialize stage count is zero:\n%s", grepLines(out, "serialize"))
	}
}

// TestMetricsDeviceReadPath: bandana_device_info and /v1/stats name how the
// file backend reads a block — through its mapping when buffered, with pread
// under O_DIRECT (where the filesystem takes it) — and the mem backend's
// descriptor has no read_path label. The counters say which reader served
// the misses: a mapped store and the mem backend read in place, so the
// device counts their blocks and the scheduler sees no demand read; a direct
// store reads through the scheduler.
func TestMetricsDeviceReadPath(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the mapped read path is asserted on linux")
	}
	type leg struct {
		direct   bool
		readPath string
	}
	legs := []leg{{false, "mmap"}}
	if nvm.DirectIOSupported(t.TempDir()) {
		legs = append(legs, leg{true, "pread"})
	} else {
		t.Log("no file-direct leg: the filesystem rejects O_DIRECT")
	}
	// Cold lookups: 64 ids spread over the blocks of the first 512 vectors.
	coldBatch := batchRequest{Table: "tA"}
	for id := uint32(0); id < 512; id += 8 {
		coldBatch.IDs = append(coldBatch.IDs, id)
	}
	g := table.Generate("tA", table.GenerateOptions{NumVectors: 512, Dim: 16, NumClusters: 8, Seed: 1})
	for _, l := range legs {
		store, err := core.Open(core.Config{
			Tables:  []*table.Table{g.Table},
			Seed:    1,
			Backend: core.BackendFile,
			DataDir: t.TempDir() + "/store",
			Direct:  l.direct,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(store).Handler())
		postJSON(t, ts.URL+"/v1/batch", coldBatch, nil)
		out := scrape(t, ts.URL)
		var stats statsResponse
		getJSON(t, ts.URL+"/v1/stats", &stats)
		ts.Close()
		store.Close()
		want := fmt.Sprintf(`bandana_device_info{backend="file",direct_io="%v",read_path="%s"} 1`+"\n", l.direct, l.readPath)
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %s%s", want, grepLines(out, "bandana_device_info"))
		}
		if stats.Device.ReadPath != l.readPath {
			t.Errorf("direct=%v: /v1/stats readPath %q, want %q", l.direct, stats.Device.ReadPath, l.readPath)
		}
		blocks, demand := sampleValue(t, out, "bandana_device_blocks_read_total"), sampleValue(t, out, "bandana_iosched_demand_reads_total")
		if scheduled := l.readPath == "pread"; blocks == 0 || (demand > 0) != scheduled {
			t.Errorf("read path %s after cold lookups: %v blocks read, %v scheduled demand reads", l.readPath, blocks, demand)
		}
	}

	ts, _ := newObsServer(t)
	postJSON(t, ts.URL+"/v1/batch", coldBatch, nil)
	out := scrape(t, ts.URL)
	if !strings.Contains(out, `bandana_device_info{backend="mem",direct_io="false"} 1`+"\n") {
		t.Errorf("mem backend descriptor:\n%s", grepLines(out, "bandana_device_info"))
	}
	if sampleValue(t, out, "bandana_device_blocks_read_total") == 0 || sampleValue(t, out, "bandana_iosched_demand_reads_total") != 0 {
		t.Errorf("mem backend after cold lookups: misses not read in place:\n%s",
			grepLines(out, "_reads_total"))
	}
}

// sampleValue is the value of the unlabelled sample name in exposition out.
func sampleValue(t *testing.T, out, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("exposition has no %s", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// scrape fetches and validates the exposition at base/metrics.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := metrics.ValidateExposition(io.TeeReader(resp.Body, &buf)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	return buf.String()
}

// TestMetricsPredictedNextToObserved trains the store and checks that the
// tuner's prediction and the prefetch counters it is judged by surface on
// /metrics (strictly valid) and in /v1/stats.
func TestMetricsPredictedNextToObserved(t *testing.T) {
	ts, srv := newObsServer(t)
	tr := trace.GenerateTable(trace.Profile{
		Name: "tA", NumVectors: 2048, AvgLookups: 16, CompulsoryMissFrac: 0.05,
		Locality: 0.9, CommunitySize: 64, ReuseSkew: 3, Seed: 3,
	}, 400)
	if _, err := srv.CurrentStore().Train([]*trace.Trace{tr}, core.TrainOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, q := range tr.Queries[:100] {
		postJSON(t, ts.URL+"/v1/batch", batchRequest{Table: "tA", IDs: q}, nil)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := metrics.ValidateExposition(io.TeeReader(resp.Body, &buf)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, name := range []string{
		"bandana_table_predicted_hit_ratio",
		"bandana_table_predicted_lookups_per_block_read",
		"bandana_table_prefetch_adds_total",
		"bandana_table_effective_bandwidth",
	} {
		series := name + "{table=\"tA\"} "
		if !strings.Contains(out, series) || strings.Contains(out, series+"0\n") {
			t.Errorf("%s missing or zero after Train + traffic:\n%s", name, grepLines(out, name))
		}
	}
	// The Train was one layout install of the table, and it took time.
	if !strings.Contains(out, "bandana_layout_installs_total{table=\"tA\"} 1\n") ||
		!strings.Contains(out, "bandana_layout_install_seconds ") || strings.Contains(out, "bandana_layout_install_seconds 0\n") {
		t.Errorf("layout install series wrong after one Train:\n%s", grepLines(out, "bandana_layout_install"))
	}

	var stats struct {
		Tables []core.TableStats `json:"tables"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if len(stats.Tables) != 1 {
		t.Fatalf("stats has %d tables", len(stats.Tables))
	}
	got := stats.Tables[0]
	if got.PredictedHitRate <= 0 || got.PredictedLookupsPerBlockRead < 1 || got.PrefetchAdds == 0 || got.EffectiveBandwidth <= 0 {
		t.Errorf("/v1/stats: predicted %.3f / %.3f, prefetchAdds %d, effective bandwidth %.3f",
			got.PredictedHitRate, got.PredictedLookupsPerBlockRead, got.PrefetchAdds, got.EffectiveBandwidth)
	}
}

// TestMetricsEndpointWirePath drives traffic ONLY over the bwp wire protocol
// and checks the same stage histograms fill: they are recorded inside the
// store's serving path, so /metrics decomposes wire traffic too.
func TestMetricsEndpointWirePath(t *testing.T) {
	ts, srv := newObsServer(t)
	c, err := wire.Dial(startWire(t, srv), wire.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	for start := uint32(0); start < 512; start += 8 {
		ids := []uint32{start, start + 1, start + 2, start + 3, start + 4, start + 5, start + 6, start + 7}
		if _, err := c.LookupBatchF32(ctx, "tA", ids); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := metrics.ValidateExposition(io.TeeReader(resp.Body, &buf)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	out := buf.String()
	for _, stage := range []string{"device_service", "cache_probe"} {
		zero := `bandana_stage_duration_us_count{table="tA",stage="` + stage + `"} 0` + "\n"
		if strings.Contains(out, zero) {
			t.Errorf("%s stage count is zero after wire-only traffic:\n%s", stage, grepLines(out, stage))
		}
	}
	if !strings.Contains(out, `bandana_wire_requests_total{opcode="lookup"} 64`) {
		t.Errorf("wire per-opcode counter missing or wrong:\n%s", grepLines(out, "bandana_wire_requests_total"))
	}
	if !strings.Contains(out, "bandana_wire_enabled 1") {
		t.Errorf("bandana_wire_enabled not 1:\n%s", grepLines(out, "wire_enabled"))
	}
	// One client waiting on each response in turn: its open connection keeps
	// the one or two handlers it started.
	for _, series := range []string{"bandana_wire_handlers", "bandana_wire_handlers_max"} {
		if !strings.Contains(out, series+" 1\n") && !strings.Contains(out, series+" 2\n") {
			t.Errorf("%s not 1 or 2 with one sequential client connected:\n%s", series, grepLines(out, "wire_handlers"))
		}
	}
}

// TestSlowRequestLog arms a zero threshold (everything is slow) and checks
// one structured line with the stage fields appears, then that the breakdown
// carries real numbers for a missing-everywhere batch.
func TestSlowRequestLog(t *testing.T) {
	ts, srv := newObsServer(t)
	srv.SetSlowRequestThreshold(time.Nanosecond)

	var logBuf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logBuf)
	defer log.SetOutput(prev)

	postJSON(t, ts.URL+"/v1/batch", batchRequest{Table: "tA", IDs: []uint32{1500, 1501, 1502}}, nil)

	out := logBuf.String()
	if !strings.Contains(out, "slow-request method=POST path=/v1/batch status=200") {
		t.Fatalf("no slow-request line:\n%s", out)
	}
	for _, field := range []string{"probe_us=", "queue_wait_us=", "service_us=", "decode_us=", "serialize_us=", "lookups=3", "suppressed="} {
		if !strings.Contains(out, field) {
			t.Errorf("slow line missing %s:\n%s", field, out)
		}
	}
	// Cold ids: the trace must show misses and non-zero device service time.
	if strings.Contains(out, "service_us=0.0 ") {
		t.Errorf("service_us is zero for a miss batch:\n%s", out)
	}
	if !strings.Contains(out, "misses=3") {
		t.Errorf("expected misses=3:\n%s", out)
	}
}

// TestSlowLogRateLimit floods the server with slow requests and checks the
// emitted line count stays near the bucket size and that no slow request goes
// unreported: each emitted line carries the suppressions since the previous
// one and resets the gauge, so the lines' counts plus what the gauge holds
// now account for every request that did not get a line. (The gauge alone
// proves nothing: a refilled token emits a line and zeroes it.)
func TestSlowLogRateLimit(t *testing.T) {
	ts, srv := newObsServer(t)
	srv.SetSlowRequestThreshold(time.Nanosecond)

	var logBuf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logBuf)
	defer log.SetOutput(prev)

	const n = 200
	for i := 0; i < n; i++ {
		getJSON(t, ts.URL+"/v1/lookup?table=tA&id=1", nil)
	}
	lines, reported := 0, int64(0)
	for _, ln := range strings.Split(logBuf.String(), "\n") {
		_, count, ok := strings.Cut(ln, " suppressed=")
		if !strings.Contains(ln, "slow-request ") || !ok {
			continue
		}
		c, err := strconv.ParseInt(count, 10, 64)
		if err != nil {
			t.Fatalf("slow line %q: %v", ln, err)
		}
		lines++
		reported += c
	}
	if lines == 0 {
		t.Fatal("no slow lines at all")
	}
	// Bucket = 20 burst + ~10/s refill; 200 back-to-back requests complete
	// in well under a second, so far fewer than n lines may emit.
	if lines > 50 {
		t.Fatalf("rate limiter let %d of %d lines through", lines, n)
	}
	if pending := srv.slowSuppressed.Load(); reported+pending != int64(n-lines) {
		t.Fatalf("%d lines reporting %d suppressed + %d pending in the gauge, want %d in all", lines, reported, pending, n-lines)
	}
}

// grepLines returns the exposition lines containing substr (test failure
// diagnostics).
func grepLines(s, substr string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
