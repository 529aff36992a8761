package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"bandana/internal/fp16"
)

// memBackend is a deterministic in-memory Backend: id i in any known table
// resolves to the fp16 encoding of [i*31+0, i*31+1, ...] unless overwritten
// through UpdateRaw. As the Backend contract requires, it keeps neither the
// ids nor the raw bytes it is handed past the call: UpdateRaw stores a copy.
type memBackend struct {
	dim    int
	tables map[string]bool

	mu        sync.Mutex
	overrides map[string]map[uint32][]byte
	// gate, when non-nil, is received from at the start of every lookup so
	// tests can hold requests in flight.
	gate chan struct{}
}

func newMemBackend(dim int, tables ...string) *memBackend {
	b := &memBackend{dim: dim, tables: make(map[string]bool), overrides: make(map[string]map[uint32][]byte)}
	for _, t := range tables {
		b.tables[t] = true
	}
	return b
}

func (b *memBackend) vector(table string, id uint32) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ov := b.overrides[table][id]; ov != nil {
		return ov
	}
	vals := make([]float32, b.dim)
	for j := range vals {
		vals[j] = float32(id)*31 + float32(j)
	}
	return fp16.EncodeSlice(nil, vals)
}

func (b *memBackend) LookupBatchRaw(table string, ids []uint32) (int, [][]byte, func(), error) {
	if gate := b.gate; gate != nil {
		<-gate
	}
	if !b.tables[table] {
		return 0, nil, nil, &Error{Code: CodeNotFound, Msg: "unknown table " + table}
	}
	vecs := make([][]byte, len(ids))
	for i, id := range ids {
		vecs[i] = b.vector(table, id)
	}
	return b.dim, vecs, nil, nil
}

func (b *memBackend) UpdateRaw(table string, id uint32, raw []byte) error {
	if !b.tables[table] {
		return &Error{Code: CodeNotFound, Msg: "unknown table " + table}
	}
	if len(raw) != b.dim*fp16.ByteSize {
		return &Error{Code: CodeBadRequest, Msg: "bad vector length"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.overrides[table] == nil {
		b.overrides[table] = make(map[uint32][]byte)
	}
	b.overrides[table][id] = append([]byte(nil), raw...)
	return nil
}

// startServer runs a Server on a loopback listener and returns its address.
func startServer(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go s.Serve(ln)
	return ln.Addr().String()
}

func dialTest(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	opts.DialTimeout = 5 * time.Second
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRoundTrip(t *testing.T) {
	for _, crc := range []bool{false, true} {
		t.Run(fmt.Sprintf("crc=%v", crc), func(t *testing.T) {
			be := newMemBackend(8, "emb")
			srv := &Server{Backend: be}
			c := dialTest(t, startServer(t, srv), Options{CRC: crc})
			ctx := testCtx(t)

			if err := c.Ping(ctx); err != nil {
				t.Fatalf("ping: %v", err)
			}

			ids := []uint32{3, 9, 3, 100000}
			dim, vecs, err := c.LookupBatchRaw(ctx, "emb", ids)
			if err != nil {
				t.Fatal(err)
			}
			if dim != 8 || len(vecs) != len(ids) {
				t.Fatalf("dim=%d count=%d, want 8/%d", dim, len(vecs), len(ids))
			}
			for i, id := range ids {
				if want := be.vector("emb", id); !bytes.Equal(vecs[i], want) {
					t.Fatalf("id %d: raw mismatch", id)
				}
			}

			f32, err := c.LookupBatchF32(ctx, "emb", ids)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ids {
				dec := make([]float32, dim)
				fp16.DecodeSlice(dec, vecs[i])
				for j := range dec {
					if math.Float32bits(dec[j]) != math.Float32bits(f32[i][j]) {
						t.Fatalf("id %d elem %d: F32 path diverges from raw decode", ids[i], j)
					}
				}
			}

			next := make([]float32, 8)
			for j := range next {
				next[j] = -float32(j)
			}
			if err := c.UpdateF32(ctx, "emb", 9, next); err != nil {
				t.Fatal(err)
			}
			_, after, err := c.LookupBatchRaw(ctx, "emb", []uint32{9})
			if err != nil {
				t.Fatal(err)
			}
			if want := fp16.EncodeSlice(nil, next); !bytes.Equal(after[0], want) {
				t.Fatal("lookup after update returned stale bytes")
			}

			// Empty batch round-trips.
			if _, empty, err := c.LookupBatchRaw(ctx, "emb", nil); err != nil || len(empty) != 0 {
				t.Fatalf("empty batch: vecs=%d err=%v", len(empty), err)
			}

			st := srv.Stats()
			if st.Requests == 0 || st.ConnsTotal != 1 {
				t.Fatalf("stats not counting: %+v", st)
			}
			// Per-opcode breakdown: 1 ping, 4 lookups, 1 update, no errors,
			// and every counted request has a latency observation.
			if got := st.Ops["ping"].Requests; got != 1 {
				t.Fatalf("ping requests = %d, want 1: %+v", got, st.Ops)
			}
			if got := st.Ops["lookup"].Requests; got != 4 {
				t.Fatalf("lookup requests = %d, want 4: %+v", got, st.Ops)
			}
			if got := st.Ops["update"].Requests; got != 1 {
				t.Fatalf("update requests = %d, want 1: %+v", got, st.Ops)
			}
			for op, os := range st.Ops {
				if os.Errors != 0 {
					t.Fatalf("%s errors = %d, want 0", op, os.Errors)
				}
			}
			// Latency is observed after the response frame is queued, so it
			// can trail the response by a beat: poll until it catches up.
			deadline := time.Now().Add(2 * time.Second)
			for {
				lagging := false
				st = srv.Stats()
				for op, os := range st.Ops {
					if os.Latency.Count != os.Requests {
						if time.Now().After(deadline) {
							t.Fatalf("%s latency count = %d, requests = %d", op, os.Latency.Count, os.Requests)
						}
						lagging = true
					}
				}
				if !lagging {
					break
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestConcurrentMultiplexed hammers one connection from many goroutines
// (run with -race): responses must route back to the request that asked,
// which the id-derived vector contents verify.
func TestConcurrentMultiplexed(t *testing.T) {
	be := newMemBackend(16, "emb")
	c := dialTest(t, startServer(t, &Server{Backend: be}), Options{CRC: true})
	ctx := testCtx(t)

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				n := int(seed+uint32(round))%7 + 1
				ids := make([]uint32, n)
				for i := range ids {
					ids[i] = seed*1000 + uint32(round*10+i)
				}
				_, vecs, err := c.LookupBatchRaw(ctx, "emb", ids)
				if err != nil {
					errs <- err
					return
				}
				for i, id := range ids {
					if !bytes.Equal(vecs[i], be.vector("emb", id)) {
						errs <- fmt.Errorf("worker %d: response for id %d carries wrong vector", seed, id)
						return
					}
				}
			}
		}(uint32(w))
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestHandlerReuseSequential: a client that waits for each response before
// sending the next request keeps one handler busy at a time, so its
// connection starts at most two handler goroutines over 1,000 lookups (the
// second covers a handler caught between queueing its response and waiting
// for the next request) instead of one per frame.
func TestHandlerReuseSequential(t *testing.T) {
	be := newMemBackend(8, "emb")
	srv := &Server{Backend: be}
	c := dialTest(t, startServer(t, srv), Options{})
	ctx := testCtx(t)
	for i := uint32(0); i < 1000; i++ {
		if _, _, err := c.LookupBatchRaw(ctx, "emb", []uint32{i, i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.HandlersMax < 1 || st.HandlersMax > 2 || st.Handlers != st.HandlersMax {
		t.Fatalf("1,000 sequential lookups on one connection: %d handlers alive, %d at most; want 1 or 2 started and kept", st.Handlers, st.HandlersMax)
	}
}

// barrierBackend holds every lookup until n lookups are inside it together.
type barrierBackend struct {
	*memBackend
	n int

	mu     sync.Mutex
	inside int
	all    chan struct{}
}

func (b *barrierBackend) LookupBatchRaw(table string, ids []uint32) (int, [][]byte, func(), error) {
	b.mu.Lock()
	if b.inside++; b.inside == b.n {
		close(b.all)
	}
	b.mu.Unlock()
	select {
	case <-b.all:
		return b.memBackend.LookupBatchRaw(table, ids)
	case <-time.After(10 * time.Second):
		return 0, nil, nil, errors.New("lookup waited for the others in vain: requests were serialized")
	}
}

// runPipelined sends n lookups at once over c and fails the test unless all
// of them succeed.
func runPipelined(t *testing.T, c *Client, n int) {
	t.Helper()
	ctx := testCtx(t)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(id uint32) {
			_, _, err := c.LookupBatchRaw(ctx, "emb", []uint32{id})
			errs <- err
		}(uint32(i))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandlerPerPipelinedRequest: 16 requests pipelined on one connection
// complete against a backend that lets none return until all 16 are inside
// it, so a request never waits behind another's backend call.
func TestHandlerPerPipelinedRequest(t *testing.T) {
	be := &barrierBackend{memBackend: newMemBackend(8, "emb"), n: 16, all: make(chan struct{})}
	srv := &Server{Backend: be}
	c := dialTest(t, startServer(t, srv), Options{})
	runPipelined(t, c, 16)
	if st := srv.Stats(); st.HandlersMax != 16 {
		t.Fatalf("16 concurrent requests ran on %d handlers", st.HandlersMax)
	}
}

// TestHandlersEndWithConn: when its connection closes, every handler it
// started exits and the goroutine count returns to where it was before the
// client dialed.
func TestHandlersEndWithConn(t *testing.T) {
	be := &barrierBackend{memBackend: newMemBackend(8, "emb"), n: 16, all: make(chan struct{})}
	srv := &Server{Backend: be}
	addr := startServer(t, srv)
	baseline := runtime.NumGoroutine()
	c, err := Dial(addr, Options{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	runPipelined(t, c, 16)
	if st := srv.Stats(); st.Handlers != 16 {
		t.Fatalf("%d handlers alive on an open connection after 16 concurrent requests, want 16", st.Handlers)
	}
	c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, n := srv.Stats(), runtime.NumGoroutine()
		if st.Handlers == 0 && st.ConnsActive == 0 && n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after close: %d handlers, %d connections, %d goroutines (baseline %d)", st.Handlers, st.ConnsActive, n, baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestErrorFrames(t *testing.T) {
	be := newMemBackend(4, "emb")
	c := dialTest(t, startServer(t, &Server{Backend: be, MaxBatch: 8}), Options{})
	ctx := testCtx(t)

	var werr *Error
	if _, _, err := c.LookupBatchRaw(ctx, "nope", []uint32{1}); !errors.As(err, &werr) || werr.Code != CodeNotFound {
		t.Fatalf("unknown table: got %v, want CodeNotFound", err)
	}
	if _, _, err := c.LookupBatchRaw(ctx, "emb", make([]uint32, 9)); !errors.As(err, &werr) || werr.Code != CodeTooLarge {
		t.Fatalf("oversized batch: got %v, want CodeTooLarge", err)
	}
	if err := c.Update(ctx, "emb", 1, []byte{1, 2}); !errors.As(err, &werr) || werr.Code != CodeBadRequest {
		t.Fatalf("short update: got %v, want CodeBadRequest", err)
	}
	// The connection survives per-request errors.
	if _, _, err := c.LookupBatchRaw(ctx, "emb", []uint32{1}); err != nil {
		t.Fatalf("connection unusable after error frames: %v", err)
	}
}

// rawConn dials the server without a Client, for crafting broken frames.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// readFrame reads one frame off conn without a Client.
func readFrame(t *testing.T, conn net.Conn) (Header, []byte) {
	t.Helper()
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("reading frame header: %v", err)
	}
	h, err := parseHeader(hdr[:])
	if err != nil {
		t.Fatalf("parsing frame header: %v", err)
	}
	payload := make([]byte, h.Len)
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatalf("reading frame payload: %v", err)
	}
	if h.Flags&FlagCRC != 0 {
		var tr [4]byte
		if _, err := io.ReadFull(conn, tr[:]); err != nil {
			t.Fatalf("reading CRC trailer: %v", err)
		}
	}
	return h, payload
}

func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("server kept the connection open, want close")
	}
}

func TestServerRejectsBadMagic(t *testing.T) {
	addr := startServer(t, &Server{Backend: newMemBackend(4, "emb")})
	conn := rawConn(t, addr)
	frame := appendFrame(nil, Header{Opcode: OpPing, ReqID: 1}, nil)
	frame[0] = 'X'
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// Garbage stream: closed without a response.
	expectClosed(t, conn)
}

func TestServerRejectsBadVersion(t *testing.T) {
	addr := startServer(t, &Server{Backend: newMemBackend(4, "emb")})
	conn := rawConn(t, addr)
	frame := appendFrame(nil, Header{Opcode: OpPing, ReqID: 7}, nil)
	frame[4] = 99
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	h, payload := readFrame(t, conn)
	if h.Flags&FlagError == 0 || h.ReqID != 7 {
		t.Fatalf("want error frame for reqid 7, got flags=%#x reqid=%d", h.Flags, h.ReqID)
	}
	if e := parseError(payload); e.Code != CodeBadRequest {
		t.Fatalf("want CodeBadRequest, got %d (%s)", e.Code, e.Msg)
	}
	expectClosed(t, conn)
}

func TestServerRejectsOversizedFrame(t *testing.T) {
	addr := startServer(t, &Server{Backend: newMemBackend(4, "emb")})
	conn := rawConn(t, addr)
	var hdr [HeaderLen]byte
	putHeader(hdr[:], Header{Opcode: OpLookup, ReqID: 9, Len: MaxPayload + 1})
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	h, payload := readFrame(t, conn)
	if h.Flags&FlagError == 0 || h.ReqID != 9 {
		t.Fatalf("want error frame for reqid 9, got flags=%#x reqid=%d", h.Flags, h.ReqID)
	}
	if e := parseError(payload); e.Code != CodeBadRequest {
		t.Fatalf("want CodeBadRequest, got %d (%s)", e.Code, e.Msg)
	}
	expectClosed(t, conn)
}

func TestServerHandlesTruncatedFrame(t *testing.T) {
	addr := startServer(t, &Server{Backend: newMemBackend(4, "emb")})
	conn := rawConn(t, addr)
	// Header promises 100 payload bytes; deliver 10 and hang up.
	var hdr [HeaderLen]byte
	putHeader(hdr[:], Header{Opcode: OpLookup, ReqID: 3, Len: 100})
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if cw, ok := conn.(*net.TCPConn); ok {
		cw.CloseWrite()
	}
	expectClosed(t, conn)
}

func TestServerRejectsCorruptCRC(t *testing.T) {
	addr := startServer(t, &Server{Backend: newMemBackend(4, "emb")})
	conn := rawConn(t, addr)
	payload := appendLookupRequest(nil, "emb", []uint32{1})
	frame := appendFrame(nil, Header{Opcode: OpLookup, Flags: FlagCRC, ReqID: 5}, payload)
	frame[len(frame)-1] ^= 0xFF // corrupt the trailer
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	h, pl := readFrame(t, conn)
	if h.Flags&FlagError == 0 || h.ReqID != 5 {
		t.Fatalf("want error frame for reqid 5, got flags=%#x reqid=%d", h.Flags, h.ReqID)
	}
	if e := parseError(pl); e.Code != CodeBadRequest {
		t.Fatalf("want CodeBadRequest, got %d (%s)", e.Code, e.Msg)
	}
	expectClosed(t, conn)
}

func TestServerRejectsUnknownOpcodeKeepsConn(t *testing.T) {
	addr := startServer(t, &Server{Backend: newMemBackend(4, "emb")})
	conn := rawConn(t, addr)
	if _, err := conn.Write(appendFrame(nil, Header{Opcode: 42, ReqID: 11}, nil)); err != nil {
		t.Fatal(err)
	}
	h, payload := readFrame(t, conn)
	if h.Flags&FlagError == 0 || h.ReqID != 11 {
		t.Fatalf("want error frame for reqid 11, got flags=%#x reqid=%d", h.Flags, h.ReqID)
	}
	if e := parseError(payload); e.Code != CodeBadRequest {
		t.Fatalf("want CodeBadRequest, got %d (%s)", e.Code, e.Msg)
	}
	// The connection must still serve well-formed requests.
	if _, err := conn.Write(appendFrame(nil, Header{Opcode: OpPing, ReqID: 12}, nil)); err != nil {
		t.Fatal(err)
	}
	h, _ = readFrame(t, conn)
	if h.Flags&FlagError != 0 || h.ReqID != 12 {
		t.Fatalf("ping after rejected opcode failed: flags=%#x reqid=%d", h.Flags, h.ReqID)
	}
}

// TestMidStreamDrop kills the server side of the connection while a request
// is in flight: the pending call and all later calls must fail with a
// transport error, not hang.
func TestMidStreamDrop(t *testing.T) {
	be := newMemBackend(4, "emb")
	be.gate = make(chan struct{})
	srv := &Server{Backend: be}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conns := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns <- conn
		srv.ServeConn(conn)
	}()

	c := dialTest(t, ln.Addr().String(), Options{})
	ctx := testCtx(t)

	done := make(chan error, 1)
	go func() {
		_, _, err := c.LookupBatchRaw(ctx, "emb", []uint32{1, 2, 3})
		done <- err
	}()

	// Drop the server side while the backend still holds the request.
	serverConn := <-conns
	serverConn.Close()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call returned success after connection drop")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight call hung after connection drop")
	}
	close(be.gate) // unblock the stranded handler

	if _, _, err := c.LookupBatchRaw(ctx, "emb", []uint32{4}); err == nil {
		t.Fatal("call on dead client returned success")
	}
	if c.Err() == nil {
		t.Fatal("client does not report the transport error")
	}
}

// TestClientAbandonsOnContext cancels a call mid-flight: the call returns
// the context error, the late response is dropped, and the connection stays
// usable for new requests.
func TestClientAbandonsOnContext(t *testing.T) {
	be := newMemBackend(4, "emb")
	be.gate = make(chan struct{})
	c := dialTest(t, startServer(t, &Server{Backend: be}), Options{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.LookupBatchRaw(ctx, "emb", []uint32{1})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the request reach the gate
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call: got %v, want context.Canceled", err)
	}

	be.gate <- struct{}{} // release the abandoned request's handler
	close(be.gate)
	if _, _, err := c.LookupBatchRaw(testCtx(t), "emb", []uint32{2}); err != nil {
		t.Fatalf("connection unusable after abandoned request: %v", err)
	}
}

// TestClientCallsSurviveAbandonment runs concurrent calls of which every
// third gives up after a few microseconds, so abandonments race their own
// responses. Call records are pooled: one recycled while the reader still
// owned its send would hand a later call someone else's response, which
// carries other ids or another count of them.
func TestClientCallsSurviveAbandonment(t *testing.T) {
	be := newMemBackend(4, "emb")
	c := dialTest(t, startServer(t, &Server{Backend: be}), Options{})
	const callers, calls = 4, 1000
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				ids := make([]uint32, 1+(g+i)%5)
				for j := range ids {
					ids[j] = uint32(g*1000 + i*7 + j)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if i%3 == 0 {
					cancel()
					ctx, cancel = context.WithTimeout(context.Background(), time.Duration(i%40)*time.Microsecond)
				}
				_, vecs, err := c.LookupBatchRaw(ctx, "emb", ids)
				cancel()
				if err != nil {
					if i%3 == 0 && errors.Is(err, context.DeadlineExceeded) {
						continue
					}
					errs <- fmt.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				for j, id := range ids {
					if !bytes.Equal(vecs[j], be.vector("emb", id)) {
						errs <- fmt.Errorf("caller %d call %d: id %d got another id's vector", g, i, id)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClientRejectsTruncatedResponse points a client at a server that sends
// half a response and disconnects.
func TestClientRejectsTruncatedResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hdr [HeaderLen]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		h, _ := parseHeader(hdr[:])
		io.CopyN(io.Discard, conn, int64(h.Len))
		// Respond with a header that promises more payload than follows.
		putHeader(hdr[:], Header{Opcode: h.Opcode, ReqID: h.ReqID, Len: 64})
		conn.Write(hdr[:])
		conn.Write(make([]byte, 8))
	}()

	c := dialTest(t, ln.Addr().String(), Options{})
	if _, _, err := c.LookupBatchRaw(testCtx(t), "emb", []uint32{1}); err == nil {
		t.Fatal("truncated response accepted")
	}
}

// TestHeaderLayout pins the on-the-wire byte offsets documented in the
// package comment (and README) so they cannot drift silently.
func TestHeaderLayout(t *testing.T) {
	var b [HeaderLen]byte
	putHeader(b[:], Header{Opcode: OpLookup, Flags: FlagCRC, ReqID: 0x1122334455667788, Len: 0xAABBCCDD})
	if string(b[0:4]) != "BWP1" {
		t.Fatalf("magic bytes = %q, want BWP1", b[0:4])
	}
	if b[4] != 1 || b[5] != OpLookup || b[6] != FlagCRC || b[7] != 0 {
		t.Fatalf("version/opcode/flags/reserved = % x", b[4:8])
	}
	if got := binary.LittleEndian.Uint64(b[8:]); got != 0x1122334455667788 {
		t.Fatalf("reqid = %#x", got)
	}
	if got := binary.LittleEndian.Uint32(b[16:]); got != 0xAABBCCDD {
		t.Fatalf("paylen = %#x", got)
	}
}
