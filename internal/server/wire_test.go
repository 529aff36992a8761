package server

import (
	"context"
	"math"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"bandana/internal/core"
	"bandana/internal/fp16"
	"bandana/internal/table"
	"bandana/internal/wire"
)

// startWire attaches a bwp listener to srv and returns its address.
func startWire(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.ServeWire(ln)
	return ln.Addr().String()
}

// TestWireMatchesHTTP pins the acceptance property end to end at the server
// layer: the same batch served over bwp (fp16 decoded client-side) and over
// the JSON API must be bit-identical float32s.
func TestWireMatchesHTTP(t *testing.T) {
	g := table.Generate("emb", table.GenerateOptions{NumVectors: 2048, Dim: 16, NumClusters: 32, Seed: 3})
	store, err := core.Open(core.Config{Tables: []*table.Table{g.Table}, DRAMBudgetVectors: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := New(store)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	c, err := wire.Dial(startWire(t, srv), wire.Options{DialTimeout: 5 * time.Second, CRC: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)

	ids := []uint32{0, 5, 5, 99, 2047, 1024}
	wireVecs, err := c.LookupBatchF32(ctx, "emb", ids)
	if err != nil {
		t.Fatal(err)
	}
	var httpResp batchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", batchRequest{Table: "emb", IDs: ids}, &httpResp); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	for i := range ids {
		if len(wireVecs[i]) != len(httpResp.Vectors[i]) {
			t.Fatalf("id %d: wire dim %d, http dim %d", ids[i], len(wireVecs[i]), len(httpResp.Vectors[i]))
		}
		for j := range wireVecs[i] {
			if math.Float32bits(wireVecs[i][j]) != math.Float32bits(httpResp.Vectors[i][j]) {
				t.Fatalf("id %d elem %d: wire %g != http %g", ids[i], j, wireVecs[i][j], httpResp.Vectors[i][j])
			}
		}
	}

	// A wire update is visible on the HTTP path.
	next := make([]float32, 16)
	for j := range next {
		next[j] = float32(j) * 0.5
	}
	if err := c.UpdateF32(ctx, "emb", 5, next); err != nil {
		t.Fatal(err)
	}
	var lr lookupResponse
	if code := getJSON(t, ts.URL+"/v1/lookup?table=emb&id=5", &lr); code != 200 {
		t.Fatalf("lookup status %d", code)
	}
	want := fp16.Quantize(append([]float32(nil), next...))
	for j := range want {
		if math.Float32bits(lr.Vector[j]) != math.Float32bits(want[j]) {
			t.Fatalf("elem %d after wire update: http sees %g, want %g", j, lr.Vector[j], want[j])
		}
	}

	// Wire errors surface with the right codes.
	var werr *wire.Error
	if _, _, err := c.LookupBatchRaw(ctx, "nope", ids); err == nil {
		t.Fatal("unknown table served")
	} else if !asWireError(err, &werr) || werr.Code != wire.CodeNotFound {
		t.Fatalf("unknown table: got %v, want CodeNotFound", err)
	}
	if _, _, err := c.LookupBatchRaw(ctx, "emb", []uint32{1 << 30}); err == nil {
		t.Fatal("out-of-range id served")
	}

	// /v1/stats reports the wire listener.
	st := getStats(t, ts.URL)
	if st.get("bandana_wire_enabled") != 1 || st.View["bandana_wire_requests_total"][`opcode="lookup"`] == 0 || st.get("bandana_wire_conns_total") == 0 {
		t.Fatalf("wire stats not reporting: %v", st.View)
	}
	if st.get("bandana_wire_error_frames_total") == 0 || st.View["bandana_wire_errors_total"][`opcode="lookup"`] == 0 {
		t.Fatalf("wire error frames not counted: %v", st.View)
	}
}

func asWireError(err error, target **wire.Error) bool {
	e, ok := err.(*wire.Error)
	if ok {
		*target = e
	}
	return ok
}

// TestWireAcrossSwap checks the wire path's store pinning: a SwapStore under
// live wire traffic must not break in-flight or subsequent lookups.
func TestWireAcrossSwap(t *testing.T) {
	open := func(seed int64) *core.Store {
		g := table.Generate("emb", table.GenerateOptions{NumVectors: 512, Dim: 8, NumClusters: 16, Seed: seed})
		store, err := core.Open(core.Config{Tables: []*table.Table{g.Table}, DRAMBudgetVectors: 64, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	srv := New(open(1))
	t.Cleanup(func() { srv.CurrentStore().Close() })

	c, err := wire.Dial(startWire(t, srv), wire.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)

	ids := []uint32{1, 2, 3, 4}
	if _, _, err := c.LookupBatchRaw(ctx, "emb", ids); err != nil {
		t.Fatal(err)
	}
	srv.SwapStore(open(2)) // old store closes once requests drain
	if _, vecs, err := c.LookupBatchRaw(ctx, "emb", ids); err != nil || len(vecs) != len(ids) {
		t.Fatalf("wire lookup after swap: vecs=%d err=%v", len(vecs), err)
	}
}
