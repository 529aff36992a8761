package server

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"bandana/internal/core"
	"bandana/internal/table"
	"bandana/internal/wire"
)

// raceEnabled is set by race_test.go in a -race build, whose runtime drops a
// share of sync.Pool puts on purpose: an allocation gate over pooled buffers
// cannot hold under it.
var raceEnabled bool

// lookupFrame encodes a bwp lookup request frame (no CRC) by hand, after the
// pinned layout: "BWP1", version, opcode, flags, a reserved byte, the u64
// request id and the u32 payload length, then u16 name length, the name,
// u32 count and the ids, all little-endian.
func lookupFrame(reqID uint64, tableName string, ids []uint32) []byte {
	payload := binary.LittleEndian.AppendUint16(nil, uint16(len(tableName)))
	payload = append(payload, tableName...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ids)))
	for _, id := range ids {
		payload = binary.LittleEndian.AppendUint32(payload, id)
	}
	frame := append([]byte("BWP1"), wire.Version, wire.OpLookup, 0, 0)
	frame = binary.LittleEndian.AppendUint64(frame, reqID)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	return append(frame, payload...)
}

// TestWireLookupAllocsPerFrame is the bwp serving path's allocation gate:
// lookup frames sent over a real connection to ServeWire, over a store,
// allocate nothing on the server — the payload is read into a pooled
// buffer, the ids into the handler's slice, the store's leased call pools
// its result slice and miss copies, and the response frame is pooled. The
// test's side of the connection writes pre-encoded frames and reads each
// response into one buffer, so every allocation counted is the server's.
// All-hit frames repeat one batch; cold ones cycle over 16 batches of 64
// ids, each id in a block of its own, 1,024 ids against a 256-vector
// cache. CI's alloc-gate step runs it without -race.
func TestWireLookupAllocsPerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	const vectors, dim, batch = 32768, 64, 64
	store, err := core.Open(core.Config{
		Tables:            []*table.Table{table.New("emb", vectors, dim)},
		DRAMBudgetVectors: 256,
		CacheShards:       8,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := New(store)
	conn, err := net.Dial("tcp", startWire(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}

	perBlock := 4096 / (2 * dim)
	hot := make([]uint32, batch)
	for i := range hot {
		hot[i] = uint32(3 * i)
	}
	var cold [][]byte
	for k := 0; k < 16; k++ {
		ids := make([]uint32, batch)
		for i := range ids {
			ids[i] = uint32((k*batch + i) * perBlock)
		}
		cold = append(cold, lookupFrame(uint64(k+1), "emb", ids))
	}
	hotFrame := lookupFrame(100, "emb", hot)
	resp := make([]byte, wire.HeaderLen+6+batch*2*dim)
	roundTrip := func(frame []byte) {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			t.Fatal(err)
		}
		if flags := resp[6]; flags&wire.FlagError != 0 {
			t.Fatalf("error frame: % x", resp[:wire.HeaderLen])
		}
		if n := binary.LittleEndian.Uint32(resp[16:]); int(n) != len(resp)-wire.HeaderLen {
			t.Fatalf("response payload is %d bytes, want %d", n, len(resp)-wire.HeaderLen)
		}
	}

	const runs = 200
	for i := 0; i < 8; i++ { // the connection's handlers and the pools exist after these
		roundTrip(hotFrame)
	}
	before := store.Stats()[0]
	hits := testing.AllocsPerRun(runs, func() { roundTrip(hotFrame) })
	after := store.Stats()[0]
	if after.Misses != before.Misses {
		t.Fatalf("%d misses over the all-hit frames", after.Misses-before.Misses)
	}

	k := 0
	next := func() {
		roundTrip(cold[k%len(cold)])
		k++
	}
	for i := 0; i < 2*len(cold); i++ {
		next()
	}
	before = store.Stats()[0]
	misses := testing.AllocsPerRun(runs, next)
	after = store.Stats()[0]
	missed := float64(after.Misses-before.Misses) / (runs + 1)
	t.Logf("server allocations per 64-id lookup frame: %.1f all-hit, %.1f cold (%.1f of 64 ids missed)", hits, misses, missed)
	if missed < batch {
		t.Fatalf("%.1f of %d ids missed per cold frame: not the cold path", missed, batch)
	}
	if hits > 0 || misses > 0 {
		t.Fatalf("a 64-id lookup frame allocates %.1f times all-hit and %.1f cold on the server, want 0", hits, misses)
	}
}

// TestClientLookupAllocsPerCall is the bwp call's allocation gate, client
// and server together: an all-hit 64-id wire.Client.LookupBatchRaw over a
// real connection to ServeWire. The server side allocates nothing
// (TestWireLookupAllocsPerFrame), so every allocation counted is the
// client's: the response payload and the view slice over it. The request
// frame and the call record with its reply channel are pooled. CI's
// alloc-gate step runs it without -race.
func TestClientLookupAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	const vectors, dim, batch = 4096, 64, 64
	store, err := core.Open(core.Config{
		Tables:            []*table.Table{table.New("emb", vectors, dim)},
		DRAMBudgetVectors: 1024,
		CacheShards:       8,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	c, err := wire.Dial(startWire(t, New(store)), wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ids := make([]uint32, batch)
	for i := range ids {
		ids[i] = uint32(3 * i)
	}
	ctx := context.Background()
	call := func() {
		if _, vecs, err := c.LookupBatchRaw(ctx, "emb", ids); err != nil || len(vecs) != batch {
			t.Fatalf("%d vectors, err %v", len(vecs), err)
		}
	}
	for i := 0; i < 8; i++ { // the cache, the handlers and the pools exist after these
		call()
	}
	before := store.Stats()[0]
	allocs := testing.AllocsPerRun(200, call)
	if after := store.Stats()[0]; after.Misses != before.Misses {
		t.Fatalf("%d misses over the all-hit calls", after.Misses-before.Misses)
	}
	t.Logf("%.1f allocations per all-hit 64-id bwp call, client and server", allocs)
	if allocs > 2 {
		t.Fatalf("an all-hit 64-id bwp call allocates %.1f times, want <= 2", allocs)
	}
}
