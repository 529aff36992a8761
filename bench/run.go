package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload is one traffic mix over the shared dataset.
type workload struct {
	Name string
	Why  string
	// Routed sends HTTP/JSON batches through the cluster router instead of
	// bwp batches to one node.
	Routed bool
	// Hot gives the store a DRAM budget of every vector and pre-warms the
	// whole held-out trace, so the timed phases are all hits.
	Hot bool
	// UpdateEvery > 0 makes every UpdateEvery-th operation an update.
	UpdateEvery int
	// ReplayBatches is the length of the count replay (which is also the
	// warm-up): sequential, from an empty cache, exact counters.
	ReplayBatches int
	// OpenPerSecond is the declared arrival rate of the traced run's
	// open-loop phase, a quarter to a half of the closed-loop rate on the
	// reference box; 0 skips the phase.
	OpenPerSecond float64
}

var workloads = []workload{
	{
		// No open loop: at a service time of ~45 us any useful rate is beyond
		// what a pacer sharing two cores with the server can hold.
		Name: "hot_bwp", Hot: true, ReplayBatches: 3200,
		Why: "every lookup hits DRAM: wire, server and vcache do all the work and iosched/nvm none, so transport and hit-path changes show here and must not move cold_bwp's block counts",
	},
	{
		Name: "cold_bwp", ReplayBatches: 3200, OpenPerSecond: 1200,
		Why: "5% DRAM budget on held-out Table-1 traffic: the miss path (admission, iosched, nvm) dominates request time and SHP/threshold quality shows as block reads",
	},
	{
		Name: "mixed_bwp", UpdateEvery: 5, ReplayBatches: 3200, OpenPerSecond: 1000,
		Why: "cold_bwp with every 5th operation an update of a hot vector: reads beside writes through cache, overlay, journal and compactor, so a read gain paid for by updates shows",
	},
	{
		Name: "routed_http", Routed: true, ReplayBatches: 1000, OpenPerSecond: 150,
		Why: "HTTP/JSON through cluster.Router to two primaries and a replica: the only path through internal/cluster and the JSON/float decode; router cost is this minus cold_bwp",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOptions are the knobs of one run that are not part of the workload.
type runOptions struct {
	Seed    int64
	Seconds float64
	Direct  bool   // O_DIRECT block files (a real NVM host)
	WorkDir string // scratch for data dirs, inside the checkout
	OutDir  string // where the traced run writes its spans
	// Corrupt flips one byte of the oracle after set-up: the run must then
	// report wrong vectors and fail (self-test of the correctness gate).
	Corrupt bool
}

// result is what one run reports.
type result struct {
	report    *report
	attempted int64
	failed    int64
	errs      []string
	notes     []string
}

// stack is the serving stack of one run plus the clients driving it.
type stack struct {
	node    *Node    // bwp workloads
	cluster *Cluster // routed_http
	clients []client
	dir     string
	down    bool
}

// nClients is the number of client goroutines and connections: the cores of
// the box, since the clients share it with the servers.
func nClients() int { return runtime.GOMAXPROCS(0) }

func startStack(w workload, ds *Dataset, dir string, direct bool, spans *recorder) (*stack, error) {
	s := &stack{dir: dir}
	if w.Routed {
		c, err := StartCluster(ds, dir, spans)
		if err != nil {
			return nil, err
		}
		s.cluster = c
		hc := NewHTTPClient(c.URL, ds.Names, nClients())
		for i := 0; i < nClients(); i++ {
			s.clients = append(s.clients, hc)
		}
		return s, nil
	}
	budget := 0
	if w.Hot {
		budget = ds.TotalVectors()
	}
	n, err := StartNode(ds, NodeOptions{Name: "a", Dir: filepath.Join(dir, "a"), BudgetVectors: budget, Direct: direct, Spans: spans})
	if err != nil {
		return nil, err
	}
	s.node = n
	for i := 0; i < nClients(); i++ {
		c, err := DialBWP(n.WireAddr, ds.Names)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// primary is the node whose layers the direct-drive measurements use.
func (s *stack) primary() *Node {
	if s.cluster != nil {
		return s.cluster.A
	}
	return s.node
}

// stores is how many copies of the dataset the stack holds.
func (s *stack) stores() int {
	if s.cluster != nil {
		return 3
	}
	return 1
}

// counters sums the primaries' counters (the replica only sees hedges).
func (s *stack) counters() Counters {
	if s.cluster != nil {
		return s.cluster.A.Counters().Add(s.cluster.B.Counters())
	}
	return s.node.Counters()
}

// shutdown closes the clients, then listeners and stores (cleanly), and
// keeps the data dirs for the reopen check. Calling it again does nothing.
func (s *stack) shutdown() error {
	if s.down {
		return nil
	}
	s.down = true
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	if s.cluster != nil {
		return s.cluster.Close()
	}
	return s.node.Close()
}

// close shuts the stack down and removes its data dirs.
func (s *stack) close() error {
	err := s.shutdown()
	os.RemoveAll(s.dir)
	return err
}

// heapInuse is the post-GC heap in use. Two collections, so that memory
// freed by finalizers of the first is gone too.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// rusage is the process's user+system CPU seconds so far and its peak
// resident set in MB (getrusage: no /proc read).
func rusage() (cpuS, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// env is one set-up: dataset, oracle, serving stack and clients.
type env struct {
	ds     *Dataset
	orc    *oracle
	st     *stack
	tr     *traffic
	setupS float64 // what a user waits: generate + open + train + listen + dial
	base   uint64  // post-GC heap in use before any store existed
}

// setup generates the dataset and stands the stack up.
func setup(w workload, o runOptions, tag string, spans *recorder) (*env, error) {
	t0 := time.Now()
	ds := BuildDataset(o.Seed)
	gen := time.Since(t0)
	// The baseline heap holds the dataset, its oracle and the traffic, but no
	// store yet. Building the oracle and sampling the heap are not set-up.
	orc := newOracle(ds, w.UpdateEvery > 0)
	base := heapInuse()
	t1 := time.Now()
	st, err := startStack(w, ds, filepath.Join(o.WorkDir, tag), o.Direct, spans)
	if err != nil {
		return nil, err
	}
	e := &env{ds: ds, orc: orc, st: st, base: base,
		setupS: (gen + time.Since(t1)).Seconds(),
		tr:     &traffic{batches: ds.Batches, oracle: orc}}
	if o.Corrupt {
		b := ds.Batches[0]
		ds.Original[b.Table][int(b.IDs[0])*ds.VecBytes] ^= 0x01
	}
	return e, nil
}

// warm runs the count replay (which is also the warm-up): one client, one
// operation at a time, from an empty cache, so the layers' counters over it
// repeat exactly for a seed. On a hot workload it then pre-warms the rest of
// the trace. It returns the counters of the replay alone.
func (e *env) warm(w workload) (replay Counters, seconds float64) {
	t0 := time.Now()
	c0 := e.st.counters()
	e.tr.replay(e.st.clients[0], w.ReplayBatches)
	replay = e.st.counters().Sub(c0)
	if w.Hot {
		e.tr.drain(e.st.clients, len(e.tr.batches)-w.ReplayBatches)
	}
	e.tr.updateEvery = w.UpdateEvery
	return replay, time.Since(t0).Seconds()
}

// finish closes the stack cleanly, reopens the primary's data dir to check
// that what was acknowledged survived the restart, and removes the data.
func (e *env) finish() (closeS, reopenS float64, verified int) {
	t0 := time.Now()
	if err := e.st.shutdown(); err != nil {
		e.tr.fail(fmt.Errorf("clean close: %w", err))
	}
	closeS = time.Since(t0).Seconds()
	verified, reopenS, err := e.verifyReopen()
	if err != nil {
		e.tr.fail(err)
		verified = 0
	}
	e.st.close() //nolint:errcheck // already shut down; this only removes the data dirs
	return closeS, reopenS, verified
}

// verifyReopen opens the primary's data dir again and checks that the store
// restored from disk returns every acknowledged update (or, on a read-only
// workload, a sample of the original vectors).
func (e *env) verifyReopen() (verified int, reopenS float64, err error) {
	ls, reopenS, err := e.st.primary().Reopen()
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	defer ls.Close()
	check := func(tbl int, id uint32, want []byte) {
		got, lerr := ls.Lookup(tbl, []uint32{id})
		switch {
		case lerr != nil:
			err = fmt.Errorf("reopen: table %d id %d: %w", tbl, id, lerr)
		case !bytes.Equal(got[0], want):
			err = fmt.Errorf("reopen: table %d id %d: not the acknowledged vector", tbl, id)
		default:
			verified++
		}
	}
	if e.orc.versioned {
		e.orc.updated(check)
	} else {
		for tbl := range e.ds.Names {
			for id := uint32(0); id < 500; id++ {
				check(tbl, id, e.orc.original(tbl, id))
			}
		}
	}
	return verified, reopenS, err
}

func (e *env) result(rep *report, notes []string) *result {
	return &result{report: rep, notes: notes,
		attempted: e.tr.attempted.Load(), failed: e.tr.failed.Load(), errs: e.tr.errs}
}

const (
	timedWindows   = 20  // windows of the timed run's closed loop
	referenceShare = 0.2 // of --seconds, spent on the reference between windows
	extraSetups    = 2   // set-ups beyond the first; setup_s is the median of all
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runTimed is the --trace 0 run: it prints the end-to-end metrics.
func runTimed(w workload, o runOptions) (*result, error) {
	rep := newReport(endToEnd)
	var notes []string
	note := func(format string, args ...any) { notes = append(notes, fmt.Sprintf(format, args...)) }
	e, err := setup(w, o, w.Name+"-0", nil)
	if err != nil {
		return nil, err
	}
	setups := []float64{e.setupS}

	replay, warmS := e.warm(w)
	rep.set("nvm_reads_per_klookup", 1000*ratio(replay.BlockReads, replay.Lookups))
	note("count replay: %d batches, %d lookups, %d block reads, hit ratio %.3f, %.2f s",
		w.ReplayBatches, replay.Lookups, replay.BlockReads, ratio(replay.Hits, replay.Lookups), warmS)

	// DRAM held per stored byte: heap growth since the baseline, plus the
	// tables themselves (they are in the baseline, but the store keeps them),
	// over the embedding bytes stored in all of the stack's stores.
	heap := heapInuse()
	stored := float64(e.st.stores()) * float64(e.ds.Bytes())
	rep.set("dram_ratio", (float64(heap)-float64(e.base)+float64(e.ds.Bytes()))/stored)
	_, rss := rusage()
	note("heap in use %.1f MB over a %.1f MB baseline, %.1f MB of embeddings stored; max RSS %.0f MB",
		float64(heap)/1e6, float64(e.base)/1e6, stored/1e6, rss)

	// Closed loop in windows, a slice of the reference after each. Each
	// timing metric is the median over windows of the window's value, scaled
	// to the reference's nominal speed by the speed it showed in this run.
	windowD := seconds(o.Seconds * (1 - referenceShare) / timedWindows)
	refD := seconds(o.Seconds * referenceShare / timedWindows)
	ref, err := newReference(nClients())
	if err != nil {
		return nil, err
	}
	defer ref.close()
	c0 := e.st.counters()
	var ws []windowStat
	var refs []float64
	operations := 0
	for i := 0; i < timedWindows; i++ {
		closed := e.tr.closedLoop(e.st.clients, windowD, nil, nil)
		operations += len(closed)
		ws = append(ws, windows(closed, windowD, 1)...)
		perS, err := ref.run(refD)
		if err != nil {
			return nil, err
		}
		refs = append(refs, perS)
	}
	cd := e.st.counters().Sub(c0)
	speed := median(refs) / refNominalPerS
	vps := windowMedian(ws, func(w windowStat) float64 { return w.VectorsPerS }, hasLookups)
	p50 := windowMedian(ws, func(w windowStat) float64 { return w.P50US }, hasLookups)
	p95 := windowMedian(ws, func(w windowStat) float64 { return w.P95US }, hasLookups)
	p99 := windowMedian(ws, func(w windowStat) float64 { return w.P99US }, hasLookups)
	rep.set("lookup_vectors_per_s", vps/speed)
	rep.set("lookup_p50_us", p50*speed)
	rep.set("lookup_p95_us", p95*speed)
	note("closed loop: %d clients, %d operations in %d windows of %v, hit ratio %.3f, %d block reads, %d compactions",
		len(e.st.clients), operations, timedWindows, windowD, ratio(cd.Hits, cd.Lookups), cd.BlockReads, cd.Compactions)
	note("as measured: %.0f vectors/s, p50 %.1f us, p95 %.1f us, p99 %.1f us; reference %.0f round trips/s = %.3f of nominal",
		vps, p50, p95, p99, median(refs), speed)

	_, _, verified := e.finish()
	note("store reopened from disk: %d vectors verified", verified)

	o.Corrupt = false
	for i := 0; i < extraSetups; i++ {
		e2, err := setup(w, o, fmt.Sprintf("%s-%d", w.Name, i+1), nil)
		if err != nil {
			return nil, err
		}
		if err := e2.st.close(); err != nil {
			return nil, err
		}
		setups = append(setups, e2.setupS)
	}
	rep.set("setup_s", median(setups))
	note("set-up times %.3f s", setups)
	return e.result(rep, notes), nil
}
