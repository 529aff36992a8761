package wire

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// heapLive is the bytes of live heap objects once everything unreachable has
// been collected.
func heapLive() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestWireConnHeapBound is the gate on what a bwp connection costs: an idle
// client and server pair holds at most 24 KiB of live heap — the two read
// buffers and little else, no write buffer on either side — and
// BufferBytes names both buffers. With buffers that small, a 1 MiB response
// frame and 256 pipelined calls in flight at once still round-trip
// byte-exact, with CRC on and off.
func TestWireConnHeapBound(t *testing.T) {
	const pairs = 16
	const maxPerPair = 24 << 10

	srv := &Server{Backend: newMemBackend(8, "emb")}
	addr := startServer(t, srv)
	ctx := testCtx(t)
	// A first connection builds what a server keeps for all of them (the
	// per-opcode metrics, the frame pool).
	if err := dialTest(t, addr, Options{}).Ping(ctx); err != nil {
		t.Fatal(err)
	}
	base := heapLive()
	clients := make([]*Client, pairs)
	for i := range clients {
		clients[i] = dialTest(t, addr, Options{})
		if err := clients[i].Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}
	perPair := (heapLive() - base) / pairs
	t.Logf("an idle client+server connection pair holds %d B of live heap", perPair)
	if perPair > maxPerPair {
		t.Fatalf("an idle connection pair holds %d B of live heap, want ≤ %d", perPair, maxPerPair)
	}
	if got, want := srv.Stats().BufferBytes, int64(pairs+1)*serverReadBuffer; got != want {
		t.Fatalf("server BufferBytes %d with %d connections open, want %d", got, pairs+1, want)
	}
	if got := clients[0].BufferBytes(); got != clientReadBuffer {
		t.Fatalf("client BufferBytes %d, want %d", got, clientReadBuffer)
	}
	for _, c := range clients {
		c.Close()
	}
	if got := clients[0].BufferBytes(); got != 0 {
		t.Fatalf("a closed client's BufferBytes is %d, want 0", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().BufferBytes != serverReadBuffer {
		if time.Now().After(deadline) {
			t.Fatalf("server BufferBytes %d after %d of %d connections closed, want %d", srv.Stats().BufferBytes, pairs, pairs+1, serverReadBuffer)
		}
		time.Sleep(time.Millisecond)
	}

	for _, crc := range []bool{false, true} {
		t.Run(fmt.Sprintf("crc=%v", crc), func(t *testing.T) {
			// 2048 vectors of 256 dims: a 1 MiB response payload, 64 times
			// the client's read buffer.
			be := newMemBackend(256, "emb")
			c := dialTest(t, startServer(t, &Server{Backend: be}), Options{CRC: crc})
			ids := make([]uint32, 2048)
			for i := range ids {
				ids[i] = uint32(3 * i)
			}
			_, vecs, err := c.LookupBatchRaw(ctx, "emb", ids)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				if !bytes.Equal(vecs[i], be.vector("emb", id)) {
					t.Fatalf("1 MiB response: vector %d (id %d) differs", i, id)
				}
			}

			// 256 calls on one connection, every one of them received by the
			// server before any is answered.
			const calls = 256
			be = newMemBackend(16, "emb")
			be.gate = make(chan struct{})
			psrv := &Server{Backend: be}
			c = dialTest(t, startServer(t, psrv), Options{CRC: crc})
			var wg sync.WaitGroup
			errs := make(chan error, calls)
			for i := range calls {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ids := []uint32{uint32(i), uint32(1000 + i), uint32(5000 + 7*i)}
					_, vecs, err := c.LookupBatchRaw(ctx, "emb", ids)
					if err != nil {
						errs <- err
						return
					}
					for j, id := range ids {
						if !bytes.Equal(vecs[j], be.vector("emb", id)) {
							errs <- fmt.Errorf("call %d: vector of id %d differs", i, id)
							return
						}
					}
				}()
			}
			for psrv.Stats().Requests < calls {
				if ctx.Err() != nil {
					t.Fatalf("only %d of %d pipelined calls reached the server", psrv.Stats().Requests, calls)
				}
				time.Sleep(time.Millisecond)
			}
			close(be.gate)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
