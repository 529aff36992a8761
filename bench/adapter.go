// adapter.go is the only file of the benchmark that names product
// identifiers. Everything else in bench/ speaks the plain types declared here,
// so a product refactor has exactly one file to reconcile with (and a unit
// test, TestOnlyAdapterImportsProduct, keeps it that way).
//
// Product identifiers used, by package:
//
//	synth    BuildWorkload, Options{Scale, NumTables, Seed, Requests}
//	table    Table, New, (*Table).NumVectors/VectorBytes/SizeBytes/Raw/SetRaw/Name/Dim
//	trace    Trace, Workload.Traces, (*Trace).Prefix/Queries/AccessCounts
//	core     Config{Tables, Backend, DataDir, Sync, Direct, DRAMBudgetVectors,
//	         Seed, IOSched.*, UpdateLog.* (by reflection)}, BackendFile, Open,
//	         Store.Train/Close/Stats/DeviceStats/IOSchedStats/UpdateLogStats/
//	         Device/LookupBatchRaw/LookupBatchRawLeased/TableNames,
//	         TrainOptions, TrainReport, TableStats
//	server   New, (*Server).WireServer/ServeWire/Handler/SwapStore/CurrentStore
//	wire     Backend, Server{Backend}, (*Server).Serve/Stats, Dial, NewClient,
//	         Options, (*Client).LookupBatchRaw/Update/Close
//	cluster  Config, Node, RolePrimary, RoleReplica, NewRouter, RouterOptions,
//	         (*Router).Handler, RouterStats, BatchRequest, BatchResponse,
//	         NewReplica, ReplicaOptions, (*Replica).Bootstrap/Run/Stop
//	nvm      SyncPeriodic, BlockSize, (*Device).ReadBlock/NumBlocks/Model/Stats,
//	         (*PerformanceModel).MaxBandwidthGBs
//	iosched  New, Config{QueueDepth}, Demand, (*Scheduler).ReadBlocks/Close
//	vcache   New, Options{Capacity, SlotBytes, Shards}, (*Cache).GetFunc/Add/Stats
//	fp16     DecodeSlice, EncodeSlice
//	shp      Partition, Options{BlockVectors, Iterations, Seed}
//	layout   FromOrder
//	sim      TuneThreshold, TunerConfig{Layout, Counts, CacheVectors, SamplingRate}
//	mrc      SampledStackDistances, (*Distances).HitRateCurve
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bandana/internal/cluster"
	"bandana/internal/core"
	"bandana/internal/fp16"
	"bandana/internal/iosched"
	"bandana/internal/layout"
	"bandana/internal/mrc"
	"bandana/internal/nvm"
	"bandana/internal/server"
	"bandana/internal/shp"
	"bandana/internal/sim"
	"bandana/internal/synth"
	"bandana/internal/table"
	"bandana/internal/trace"
	"bandana/internal/vcache"
	"bandana/internal/wire"
)

// Dataset sizing, shared by every workload. Scale 0.002 of the paper's
// Table 1 gives tables of 20k/20k/40k/40k vectors (120k vectors, 15.4 MB of
// fp16, 3,750 blocks): large enough that a 5% cache misses for real and SHP
// has structure to find, small enough that generate+open+train is ~3 s, which
// the driver's run budget needs (set-up is repeated three times per run).
const (
	datasetScale    = 0.002
	datasetTables   = 4
	datasetRequests = 12000 // requests generated
	trainRequests   = 4000  // the first of them train; the rest are held-out traffic
	blockBytes      = nvm.BlockSize
	// datasetSeed generates the tables and the requests. It is a constant:
	// --seed orders the held-out traffic instead. With the seed driving the
	// generator,
	// one seed in five trained to a different admission threshold, and block
	// reads (8%), DRAM held (18%) and p50 (30%) moved with it, which the
	// driver's spread over ten seeds would read as noise of the benchmark.
	// One dataset under many orders of traffic keeps what training decided
	// fixed, so the counts repeat within ~2%. A shuffle, not a rotation: the
	// generator keeps introducing fresh vectors, so later requests miss more
	// (block reads rise 10% from the first held-out request to the last), and
	// a shuffle gives every seed the same mix of early and late requests.
	datasetSeed = 1
)

// Batch is one unit of traffic: the ids one request reads from one table.
type Batch struct {
	Table int
	IDs   []uint32
}

// Dataset is all the inputs: the tables handed to the store, a private oracle
// copy of their bytes, and the held-out traffic in the order --seed gives it.
type Dataset struct {
	Seed       int64
	Names      []string
	NumVectors []int
	Dim        int
	VecBytes   int
	// Original is the oracle: a private copy of every table's fp16 bytes,
	// taken before any store sees the table (the store mutates the table it
	// is given on update).
	Original [][]byte
	// Batches is the held-out traffic, shuffled by the seed.
	Batches []Batch

	tables []*table.Table
	train  []*trace.Trace
}

// TotalVectors is the number of vectors across all tables.
func (ds *Dataset) TotalVectors() int {
	n := 0
	for _, v := range ds.NumVectors {
		n += v
	}
	return n
}

// Bytes is the embedding payload stored: vectors x vector size.
func (ds *Dataset) Bytes() int64 { return int64(ds.TotalVectors()) * int64(ds.VecBytes) }

// BuildDataset generates tables, training traces and held-out traffic, and
// shuffles the traffic by seed. The same seed gives bit-identical output.
func BuildDataset(seed int64) *Dataset {
	tables, w := synth.BuildWorkload(synth.Options{
		Scale: datasetScale, NumTables: datasetTables, Seed: datasetSeed, Requests: datasetRequests,
	})
	ds := &Dataset{Seed: datasetSeed, tables: tables, Dim: tables[0].Dim, VecBytes: tables[0].VectorBytes()}
	for _, t := range tables {
		ds.Names = append(ds.Names, t.Name)
		ds.NumVectors = append(ds.NumVectors, t.NumVectors())
		ds.Original = append(ds.Original, copyTableBytes(t))
	}
	for _, tr := range w.Traces {
		ds.train = append(ds.train, tr.Prefix(trainRequests))
	}
	for r := trainRequests; r < datasetRequests; r++ {
		for ti, tr := range w.Traces {
			if r < len(tr.Queries) && len(tr.Queries[r]) > 0 {
				ds.Batches = append(ds.Batches, Batch{Table: ti, IDs: append([]uint32(nil), tr.Queries[r]...)})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ds.Batches), func(i, j int) {
		ds.Batches[i], ds.Batches[j] = ds.Batches[j], ds.Batches[i]
	})
	return ds
}

func copyTableBytes(t *table.Table) []byte {
	vb := t.VectorBytes()
	out := make([]byte, 0, t.SizeBytes())
	for id := 0; id < t.NumVectors(); id++ {
		raw, err := t.Raw(uint32(id))
		if err != nil || len(raw) != vb {
			panic(fmt.Sprintf("bench: table %s vector %d unreadable: %v", t.Name, id, err))
		}
		out = append(out, raw...)
	}
	return out
}

// cloneTables rebuilds the tables from the oracle bytes, for a second store
// that must not share (and so hide the cost of) the first one's copy.
func (ds *Dataset) cloneTables() []*table.Table {
	out := make([]*table.Table, len(ds.tables))
	for ti := range ds.tables {
		t := table.New(ds.Names[ti], ds.NumVectors[ti], ds.Dim)
		for id := 0; id < ds.NumVectors[ti]; id++ {
			if err := t.SetRaw(uint32(id), ds.Original[ti][id*ds.VecBytes:(id+1)*ds.VecBytes]); err != nil {
				panic(err)
			}
		}
		out[ti] = t
	}
	return out
}

// setField assigns v to the dotted field path of the struct p points to and
// reports whether the field exists. The store's on/off switches are pinned
// through it so that a later PR deleting a switch (ROADMAP item 2) cannot
// stop the benchmark it is judged by from compiling.
func setField(p any, path string, v any) bool {
	f := reflect.ValueOf(p).Elem()
	for _, name := range strings.Split(path, ".") {
		if f.Kind() != reflect.Struct {
			return false
		}
		if f = f.FieldByName(name); !f.IsValid() {
			return false
		}
	}
	val := reflect.ValueOf(v)
	if !f.CanSet() || !val.Type().ConvertibleTo(f.Type()) {
		return false
	}
	f.Set(val.Convert(f.Type()))
	return true
}

// Compaction sizing for the update log: small enough that the mixed
// workload's few thousand updates per run complete well over five
// background compactions (the defaults, 4096/16384, would complete none).
const (
	compactAfter  = 256
	retainRecords = 1024
)

// NodeOptions configures one serving stack.
type NodeOptions struct {
	Name          string
	Dir           string
	BudgetVectors int  // DRAM budget; 0 = 5% of the vectors
	Direct        bool // O_DIRECT block file (real NVM hosts)
	OwnTables     bool // give the store its own copy of the tables
	Spans         *recorder
}

// storeConfig is the pinned store configuration of every workload: file
// backend (buffered unless Direct), periodic sync, I/O scheduler on at queue
// depth 8 and window 0, update log on, default cache engine.
func storeConfig(ds *Dataset, opt NodeOptions, tables []*table.Table) core.Config {
	budget := opt.BudgetVectors
	if budget <= 0 {
		budget = ds.TotalVectors() / 20
	}
	cfg := core.Config{
		Tables:            tables,
		Backend:           core.BackendFile,
		DataDir:           opt.Dir,
		Sync:              nvm.SyncPeriodic,
		Direct:            opt.Direct,
		DRAMBudgetVectors: budget,
		Seed:              ds.Seed,
	}
	setField(&cfg, "IOSched.Enabled", true)
	setField(&cfg, "IOSched.QueueDepth", 8)
	setField(&cfg, "IOSched.Window", time.Duration(0))
	setField(&cfg, "UpdateLog.Enabled", true)
	setField(&cfg, "UpdateLog.CompactAfter", compactAfter)
	setField(&cfg, "UpdateLog.RetainRecords", retainRecords)
	return cfg
}

// TrainInfo is what training decided, lookup-weighted across tables.
type TrainInfo struct {
	FanoutBefore, FanoutAfter float64
	PredictedGain             float64
}

// Node is one serving stack: store -> server -> bwp (and HTTP) listeners on
// loopback.
type Node struct {
	Name     string
	OpenS    float64
	TrainS   float64
	Train    TrainInfo
	WireAddr string
	HTTPAddr string

	srv     *server.Server
	wireLn  net.Listener
	httpSrv *http.Server
	dir     string
	cfg     core.Config
}

// StartNode opens a file-backed store over the dataset, trains it and serves
// it.
func StartNode(ds *Dataset, opt NodeOptions) (*Node, error) {
	tables := ds.tables
	if opt.OwnTables {
		tables = ds.cloneTables()
	}
	cfg := storeConfig(ds, opt, tables)
	t0 := time.Now()
	store, err := core.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", opt.Name, err)
	}
	n := &Node{Name: opt.Name, dir: opt.Dir, cfg: cfg, OpenS: time.Since(t0).Seconds()}
	t0 = time.Now()
	rep, err := store.Train(ds.train, core.TrainOptions{})
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("train %s: %w", opt.Name, err)
	}
	n.TrainS = time.Since(t0).Seconds()
	n.Train = trainInfo(rep)
	if err := n.serve(store, opt.Spans); err != nil {
		store.Close()
		return nil, err
	}
	return n, nil
}

func trainInfo(rep *core.TrainReport) TrainInfo {
	var ti TrainInfo
	var w float64
	for _, t := range rep.Tables {
		l := float64(t.TrainingLookups)
		ti.FanoutBefore += l * t.InitialFanout
		ti.FanoutAfter += l * t.FinalFanout
		ti.PredictedGain += l * t.MiniatureGain
		w += l
	}
	if w > 0 {
		ti.FanoutBefore /= w
		ti.FanoutAfter /= w
		ti.PredictedGain /= w
	}
	return ti
}

// trackingListener remembers the connections it accepted so that Close can
// end them from the server's side: the router keeps a persistent bwp
// connection to every node and has no way to be told to drop it.
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) Close() error {
	err := l.Listener.Close()
	l.mu.Lock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
	l.mu.Unlock()
	return err
}

// serve wraps the seams (traced runs only) and starts the listeners.
func (n *Node) serve(store *core.Store, spans *recorder) error {
	n.srv = server.New(store)
	if spans != nil {
		ws := n.srv.WireServer()
		ws.Backend = &spanBackend{inner: ws.Backend, node: n.Name, spans: spans}
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ln := &trackingListener{Listener: tcp}
	n.wireLn = ln
	n.WireAddr = ln.Addr().String()
	go n.srv.ServeWire(ln) //nolint:errcheck // returns when Close closes ln
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		return err
	}
	n.HTTPAddr = "http://" + hln.Addr().String()
	n.httpSrv = &http.Server{Handler: n.srv.Handler()}
	go n.httpSrv.Serve(hln) //nolint:errcheck // returns when Close shuts it down
	return nil
}

// Close stops the listeners, ends the bwp connections (each finishes the
// requests it has in hand first), waits for them to drain and closes the
// store cleanly.
func (n *Node) Close() error {
	n.wireLn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n.httpSrv.Shutdown(ctx) //nolint:errcheck // best effort; the store close below is what matters
	ws := n.srv.WireServer()
	for deadline := time.Now().Add(5 * time.Second); ws.Stats().ConnsActive > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return n.srv.CurrentStore().Close()
}

// Reopen opens the node's data dir again (after Close) without serving it,
// for the post-restart verification. The caller closes the returned store.
func (n *Node) Reopen() (*LocalStore, float64, error) {
	cfg := n.cfg
	cfg.Tables = nil
	t0 := time.Now()
	s, err := core.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	return &LocalStore{store: s}, time.Since(t0).Seconds(), nil
}

// Local returns the node's store for in-process direct drive.
func (n *Node) Local() *LocalStore { return &LocalStore{store: n.srv.CurrentStore()} }

// DataDirBytes is the size of everything under the node's data dir.
func (n *Node) DataDirBytes() int64 {
	var total int64
	filepath.Walk(n.dir, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // a vanished file is not counted
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// spanBackend is the seam wrapper around a node's wire.Backend: it records a
// "backend" span around every call while the recorder is on.
type spanBackend struct {
	inner wire.Backend
	node  string
	spans *recorder
}

func (b *spanBackend) LookupBatchRaw(tbl string, ids []uint32) (int, [][]byte, func(), error) {
	if !b.spans.enabled() {
		return b.inner.LookupBatchRaw(tbl, ids)
	}
	t0 := time.Now()
	dim, vecs, release, err := b.inner.LookupBatchRaw(tbl, ids)
	b.spans.record("backend", b.node, t0, time.Now())
	return dim, vecs, release, err
}

func (b *spanBackend) UpdateRaw(tbl string, id uint32, raw []byte) error {
	if !b.spans.enabled() {
		return b.inner.UpdateRaw(tbl, id, raw)
	}
	t0 := time.Now()
	err := b.inner.UpdateRaw(tbl, id, raw)
	b.spans.record("backend-update", b.node, t0, time.Now())
	return err
}

// spanHandler is the seam wrapper around an http.Handler.
func spanHandler(name string, inner http.Handler, spans *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !spans.enabled() {
			inner.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		spans.record(name, name, t0, time.Now())
	})
}

// Counters is a plain snapshot of the counters the layers of a node export.
// Every field outside Gauges is a running total: Add sums two nodes, Sub
// gives the delta over a phase.
type Counters struct {
	Lookups, Hits, DeltaHits, Misses          int64
	BlockReads, CoalescedReads                int64
	PrefetchAdds, PrefetchHits                int64
	ProbeSumUS, QueueSumUS, DecodeSumUS       float64 // stage time: mean x count
	DevBytesRead, DevBytesWrit                int64
	JournalWrites, JournalBytes, Flushes      int64
	SchedDeviceReads, SchedBatches, SchedCoal int64
	SchedSubmitted                            int64
	LogAppends, LogBytes, Compactions         int64
	WireRequests, WireErrors                  int64
	Gauges
}

// Gauges are point-in-time values and quantiles; Add and Sub keep the
// receiver's.
type Gauges struct {
	OverlayEntries                      int
	CacheUsed                           int
	CacheResidentBytes, CacheArenaBytes int64
	ProbeP50US, QueueP50US, DecodeP50US float64 // lookup-weighted across tables
	ModelledP50US                       float64 // the device model's sampled latency, not wall clock
	SchedWaitP50US, SchedWaitP99US      float64
	RingUtil                            float64
	DirectIO                            bool
}

// Counters reads the node's layers' own counters.
func (n *Node) Counters() Counters {
	c := storeCounters(n.srv.CurrentStore())
	ws := n.srv.WireServer().Stats()
	c.WireRequests, c.WireErrors = ws.Requests, ws.Errors
	return c
}

func storeCounters(s *core.Store) Counters {
	var c Counters
	var wl float64
	for _, t := range s.Stats() {
		c.Lookups += t.Lookups
		c.Hits += t.Hits
		c.DeltaHits += t.DeltaHits
		c.Misses += t.Misses
		c.BlockReads += t.BlockReads
		c.CoalescedReads += t.CoalescedReads
		c.PrefetchAdds += t.PrefetchAdds
		c.PrefetchHits += t.PrefetchHits
		c.CacheUsed += t.CacheUsed
		c.CacheResidentBytes += t.CacheBytesResident
		c.CacheArenaBytes += t.CacheArenaBytes
		// The probe histogram samples ~1/64 of the lookups, so its share of
		// request time is its mean times the lookups, not times its count.
		c.ProbeSumUS += t.ProbeLatency.Mean * float64(t.Lookups)
		c.QueueSumUS += t.QueueWaitLatency.Mean * float64(t.QueueWaitLatency.Count)
		c.DecodeSumUS += t.DecodeLatency.Mean * float64(t.DecodeLatency.Count)
		l := float64(t.Lookups)
		c.ProbeP50US += l * t.ProbeLatency.P50
		c.QueueP50US += l * t.QueueWaitLatency.P50
		c.DecodeP50US += l * t.DecodeLatency.P50
		wl += l
	}
	if wl > 0 {
		c.ProbeP50US /= wl
		c.QueueP50US /= wl
		c.DecodeP50US /= wl
	}
	d := s.DeviceStats()
	c.DevBytesRead, c.DevBytesWrit = d.BytesRead, d.BytesWritten
	c.ModelledP50US = d.ReadLatency.P50
	c.JournalWrites, c.JournalBytes, c.Flushes = d.Store.JournalWrites, d.Store.JournalBytesAppended, d.Store.Flushes
	c.RingUtil, c.DirectIO = d.Store.RingUtilization, d.Store.DirectIO
	if st, ok := s.IOSchedStats(); ok {
		c.SchedDeviceReads, c.SchedBatches, c.SchedCoal = st.DeviceReads, st.Batches, st.Coalesced
		c.SchedSubmitted = st.DemandReads + st.PrefetchReads
		c.SchedWaitP50US, c.SchedWaitP99US = st.QueueWait.P50, st.QueueWait.P99
	}
	ul := s.UpdateLogStats()
	c.LogAppends, c.LogBytes, c.Compactions = ul.Appends, ul.BytesAppended, ul.Compactions
	c.OverlayEntries = ul.OverlayEntries
	return c
}

// Add sums the running totals of two snapshots (two nodes of a cluster).
func (c Counters) Add(o Counters) Counters { return c.combine(o, 1) }

// Sub is the change in the running totals since an earlier snapshot.
func (c Counters) Sub(o Counters) Counters { return c.combine(o, -1) }

func (c Counters) combine(o Counters, sign int64) Counters {
	cv, ov := reflect.ValueOf(&c).Elem(), reflect.ValueOf(o)
	for i := 0; i < cv.NumField(); i++ {
		switch f := cv.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() + sign*ov.Field(i).Int())
		case reflect.Float64:
			f.SetFloat(f.Float() + float64(sign)*ov.Field(i).Float())
		}
	}
	return c
}

// ModelPeakBytesPerS is the Figure-2 performance model's peak device
// bandwidth. It is a modelled number: never add it to, or divide it into, a
// wall-clock time.
func (n *Node) ModelPeakBytesPerS() float64 {
	return n.srv.CurrentStore().Device().Model().MaxBandwidthGBs() * 1e9
}

// LocalStore is a store driven in-process, below the network seams.
type LocalStore struct{ store *core.Store }

// OpenLocalUntrained opens a mem-backend store over a private copy of the
// dataset with the same DRAM budget and no training: the baseline SHP and
// the tuned admission are compared against.
func OpenLocalUntrained(ds *Dataset, budget int) (*LocalStore, error) {
	cfg := storeConfig(ds, NodeOptions{BudgetVectors: budget}, ds.cloneTables())
	cfg.Backend, cfg.DataDir = "", ""
	s, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &LocalStore{store: s}, nil
}

// Lookup is a copying in-process raw lookup.
func (l *LocalStore) Lookup(tbl int, ids []uint32) ([][]byte, error) {
	return l.store.LookupBatchRaw(tbl, ids)
}

// LookupLeased is the zero-copy in-process lookup the bwp server uses.
func (l *LocalStore) LookupLeased(tbl int, ids []uint32) ([][]byte, func(), error) {
	return l.store.LookupBatchRawLeased(tbl, ids)
}

// Counters reads the store's counters.
func (l *LocalStore) Counters() Counters { return storeCounters(l.store) }

// NumBlocks is the device size in blocks.
func (l *LocalStore) NumBlocks() int { return l.store.Device().NumBlocks() }

// ReadBlock reads one block straight from the device, under the scheduler.
func (l *LocalStore) ReadBlock(idx int, dst []byte) error {
	_, err := l.store.Device().ReadBlock(idx, dst)
	return err
}

// NewReadScheduler builds a private I/O scheduler (queue depth 8, window 0)
// over the store's device, for timing ReadBlocks in isolation.
func (l *LocalStore) NewReadScheduler() (read func(blocks []int, dst []byte) error, closeFn func(), err error) {
	s, err := iosched.New(l.store.Device(), iosched.Config{QueueDepth: 8})
	if err != nil {
		return nil, nil, err
	}
	read = func(blocks []int, dst []byte) error {
		_, err := s.ReadBlocks(blocks, dst, iosched.Demand, 0)
		return err
	}
	return read, func() { s.Close() }, nil
}

// Close closes a store opened by Reopen or OpenLocalUntrained.
func (l *LocalStore) Close() error { return l.store.Close() }

// lookupResult is what a client got back: raw fp16 vectors over bwp, decoded
// float32 vectors over HTTP/JSON.
type lookupResult struct {
	Raw [][]byte
	F32 [][]float32
}

func (r lookupResult) len() int { return len(r.Raw) + len(r.F32) }

// client is one connection's worth of load.
type client interface {
	Lookup(tbl int, ids []uint32) (lookupResult, error)
	Update(tbl int, id uint32, raw []byte) error
	Close()
}

// countingConn counts the bytes a client moves in each direction.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// bwpClient speaks the binary wire protocol over one persistent connection.
type bwpClient struct {
	c     *wire.Client
	conn  *countingConn
	names []string
}

const callTimeout = 10 * time.Second

// DialBWP connects one bwp client.
func DialBWP(addr string, names []string) (*bwpClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	return &bwpClient{c: wire.NewClient(cc, wire.Options{}), conn: cc, names: names}, nil
}

func (b *bwpClient) Lookup(tbl int, ids []uint32) (lookupResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	_, vecs, err := b.c.LookupBatchRaw(ctx, b.names[tbl], ids)
	return lookupResult{Raw: vecs}, err
}

func (b *bwpClient) Update(tbl int, id uint32, raw []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	return b.c.Update(ctx, b.names[tbl], id, raw)
}

func (b *bwpClient) Close() { b.c.Close() }

// WireBytes is the bytes this client has sent plus received.
func (b *bwpClient) WireBytes() int64 { return b.conn.read.Load() + b.conn.written.Load() }

// httpClient posts JSON batches to the router. All client goroutines share
// one, and its transport holds at most maxConns connections.
type httpClient struct {
	url   string
	hc    *http.Client
	names []string
}

// NewHTTPClient builds the shared router client.
func NewHTTPClient(url string, names []string, maxConns int) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, IdleConnTimeout: time.Minute}
	return &httpClient{url: url, names: names, hc: &http.Client{Transport: tr, Timeout: callTimeout}}
}

func (h *httpClient) Lookup(tbl int, ids []uint32) (lookupResult, error) {
	body, err := json.Marshal(cluster.BatchRequest{Table: h.names[tbl], IDs: ids})
	if err != nil {
		return lookupResult{}, err
	}
	resp, err := h.hc.Post(h.url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return lookupResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return lookupResult{}, fmt.Errorf("router: %s: %s", resp.Status, msg)
	}
	var out cluster.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return lookupResult{}, err
	}
	if len(out.Errors) > 0 {
		return lookupResult{}, fmt.Errorf("router: %d per-id errors, first: id %d on %s: %s",
			len(out.Errors), out.Errors[0].ID, out.Errors[0].Node, out.Errors[0].Error)
	}
	return lookupResult{F32: out.Vectors}, nil
}

func (h *httpClient) Update(int, uint32, []byte) error {
	return fmt.Errorf("router: updates are not routed")
}

func (h *httpClient) Close() { h.hc.CloseIdleConnections() }

// Cluster is the routed stack: a router in front of two primaries and one
// replica of the first, all in this process over loopback.
type Cluster struct {
	A, B, R           *Node
	URL               string
	ReplicaBootstrapS float64

	rep     *cluster.Replica
	httpSrv *http.Server
}

// StartCluster stands the routed stack up. Partitions are 1,024 ids wide, so
// with tables of 20k-40k vectors every batch scatters to both primaries.
func StartCluster(ds *Dataset, dir string, spans *recorder) (*Cluster, error) {
	a, err := StartNode(ds, NodeOptions{Name: "a", Dir: filepath.Join(dir, "a"), Spans: spans})
	if err != nil {
		return nil, err
	}
	b, err := StartNode(ds, NodeOptions{Name: "b", Dir: filepath.Join(dir, "b"), OwnTables: true, Spans: spans})
	if err != nil {
		a.Close()
		return nil, err
	}
	c := &Cluster{A: a, B: b}
	t0 := time.Now()
	c.rep, err = cluster.NewReplica(cluster.ReplicaOptions{PrimaryURL: a.HTTPAddr, DataDir: filepath.Join(dir, "a-replica")})
	if err != nil {
		c.Close()
		return nil, err
	}
	rstore, _, err := c.rep.Bootstrap()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("replica bootstrap: %w", err)
	}
	c.ReplicaBootstrapS = time.Since(t0).Seconds()
	c.R = &Node{Name: "a-replica", dir: filepath.Join(dir, "a-replica")}
	if err := c.R.serve(rstore, spans); err != nil {
		rstore.Close()
		c.R = nil
		c.Close()
		return nil, err
	}
	go c.rep.Run(c.R.srv.SwapStore)

	rt, err := cluster.NewRouter(&cluster.Config{
		IDRangeSize: 1024,
		Nodes: []cluster.Node{
			{ID: a.Name, Addr: a.HTTPAddr, WireAddr: a.WireAddr, Role: cluster.RolePrimary},
			{ID: b.Name, Addr: b.HTTPAddr, WireAddr: b.WireAddr, Role: cluster.RolePrimary},
			{ID: c.R.Name, Addr: c.R.HTTPAddr, WireAddr: c.R.WireAddr, Role: cluster.RoleReplica, ReplicaOf: a.Name},
		},
	}, cluster.RouterOptions{})
	if err != nil {
		c.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.URL = "http://" + ln.Addr().String()
	h := rt.Handler()
	if spans != nil {
		h = spanHandler("router", h, spans)
	}
	c.httpSrv = &http.Server{Handler: h}
	go c.httpSrv.Serve(ln) //nolint:errcheck // returns when Close shuts it down
	return c, nil
}

// Close tears the cluster down front to back.
func (c *Cluster) Close() error {
	if c.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		c.httpSrv.Shutdown(ctx) //nolint:errcheck // best effort; store closes below are what matter
		cancel()
	}
	var first error
	if c.R != nil {
		c.rep.Stop()
		first = c.R.Close()
	}
	for _, n := range []*Node{c.B, c.A} {
		if n != nil {
			if err := n.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// RouterCounters is the router's own per-node accounting, summed.
type RouterCounters struct {
	NodeErrors                  int64
	Hedges, HedgeWins           int64
	WireRequests, WireFallbacks int64
}

// RouterCounters scrapes the router's /v1/stats (which also probes the
// nodes, so call it outside timed phases).
func (c *Cluster) RouterCounters() (RouterCounters, error) {
	resp, err := http.Get(c.URL + "/v1/stats")
	if err != nil {
		return RouterCounters{}, err
	}
	defer resp.Body.Close()
	var st cluster.RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return RouterCounters{}, err
	}
	var out RouterCounters
	for _, n := range st.Nodes {
		out.NodeErrors += n.Errors
		out.Hedges += n.Hedges
		out.HedgeWins += n.HedgeWins
		out.WireRequests += n.WireRequests
		out.WireFallbacks += n.WireFallbacks
	}
	return out, nil
}

// StubServer is a bwp server whose backend returns fixed bytes: what the
// protocol and the loopback cost with no store behind them.
type StubServer struct {
	Addr string
	ln   net.Listener
	ws   *wire.Server
}

type stubBackend struct {
	dim int
	vec []byte
}

func (s stubBackend) LookupBatchRaw(_ string, ids []uint32) (int, [][]byte, func(), error) {
	out := make([][]byte, len(ids))
	for i := range out {
		out[i] = s.vec
	}
	return s.dim, out, nil, nil
}

func (s stubBackend) UpdateRaw(string, uint32, []byte) error { return nil }

// StartStub serves the stub backend on loopback.
func StartStub(dim int) (*StubServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &StubServer{Addr: ln.Addr().String(), ln: ln,
		ws: &wire.Server{Backend: stubBackend{dim: dim, vec: make([]byte, 2*dim)}, MaxBatch: 8192}}
	go s.ws.Serve(ln) //nolint:errcheck // returns when Close closes ln
	return s, nil
}

// Close stops the stub; its clients must be closed first.
func (s *StubServer) Close() {
	s.ln.Close()
	for deadline := time.Now().Add(2 * time.Second); s.ws.Stats().ConnsActive > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// VCache is a bare cache engine instance for direct drive.
type VCache struct{ c *vcache.Cache }

// NewVCache builds a cache of the given capacity for vectors of slotBytes.
func NewVCache(capacity, slotBytes, shards int) *VCache {
	return &VCache{c: vcache.New(vcache.Options{Capacity: capacity, SlotBytes: slotBytes, Shards: shards})}
}

// Get probes id the way a hit does, touching the payload in place.
func (v *VCache) Get(id uint32, fn func([]byte, bool)) bool { return v.c.GetFunc(id, fn) }

// Add inserts id (evicting when full).
func (v *VCache) Add(id uint32, payload []byte) { v.c.Add(id, payload, false) }

// Footprint is the cache's own byte accounting: every byte it holds per
// resident vector, and the share of its arenas that is payload.
func (v *VCache) Footprint() (bytesPerVector, arenaUtilization float64) {
	st := v.c.Stats()
	if st.Entries == 0 {
		return 0, 0
	}
	return float64(st.ArenaBytes+st.MetaBytes+st.IndexBytes) / float64(st.Entries), st.Utilization
}

// DefaultShards is the shard count a store gives each table cache.
func DefaultShards() int { return core.DefaultCacheShards() }

// FP16Decode and FP16Encode are the product's bulk converters.
func FP16Decode(dst []float32, src []byte) { fp16.DecodeSlice(dst, src) }
func FP16Encode(dst []byte, src []float32) []byte {
	return fp16.EncodeSlice(dst, src)
}

// TrainStages times the three training stages on one table by calling them
// directly, the way Store.Train composes them.
type TrainStages struct {
	PartitionS, TuneS, HRCS float64
}

// TimeTrainStages runs SHP, the miniature-cache tuner and the hit-rate-curve
// estimate for table ti with Train's default options.
func TimeTrainStages(ds *Dataset, ti, cacheVectors int) (TrainStages, error) {
	var out TrainStages
	tr := ds.train[ti]
	bv := blockBytes / ds.VecBytes
	queries := make([][]uint32, len(tr.Queries))
	for i, q := range tr.Queries {
		queries[i] = q
	}
	t0 := time.Now()
	res, err := shp.Partition(ds.NumVectors[ti], queries, shp.Options{BlockVectors: bv, Iterations: 16, Seed: ds.Seed + int64(ti)})
	if err != nil {
		return out, err
	}
	out.PartitionS = time.Since(t0).Seconds()
	l, err := layout.FromOrder(res.Order, bv)
	if err != nil {
		return out, err
	}
	t0 = time.Now()
	if _, err := sim.TuneThreshold(tr, sim.TunerConfig{
		Layout: l, Counts: tr.AccessCounts(), CacheVectors: cacheVectors, SamplingRate: 0.01,
	}); err != nil {
		return out, err
	}
	out.TuneS = time.Since(t0).Seconds()
	t0 = time.Now()
	flat := make([]uint32, 0, tr.Lookups())
	for _, q := range tr.Queries {
		flat = append(flat, q...)
	}
	mrc.SampledStackDistances(flat, 0.1).HitRateCurve()
	out.HRCS = time.Since(t0).Seconds()
	return out, nil
}
