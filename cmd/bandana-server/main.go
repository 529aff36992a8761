// Command bandana-server runs a Bandana store as an HTTP service.
//
// It builds synthetic embedding tables (scaled-down versions of the paper's
// Table 1), optionally trains placement and caching from a synthetic trace,
// and serves lookups over JSON/HTTP. It is meant for load testing and
// demos.
//
// With --backend=file the tables live in a durable block file under
// --data-dir: the first run writes and trains them, and later runs reopen
// the directory — replaying the update log's uncompacted updates, which also
// repairs a block the previous process died writing — and serve identical
// vectors without regenerating or retraining anything. (`bandana init`
// pre-builds such a directory.)
//
// With --replica-of=URL the server is a read-only replica: it bootstraps
// its data dir from the primary's snapshot stream (resumable and
// CRC-verified, so a killed bootstrap resumes where it left off), serves
// the snapshot read-only, and re-syncs in the background whenever the
// primary's snapshot seq advances — each re-sync atomically swaps the
// served store without dropping in-flight requests.
//
// Usage:
//
//	bandana-server --addr :8080 --scale 0.001 --train
//	bandana-server --addr :8080 --wire-addr :8090   # also serve the binary wire protocol (bwp)
//	bandana-server --backend file --data-dir /var/lib/bandana --sync periodic
//	bandana-server --addr :8081 --replica-of http://primary:8080 --data-dir /var/lib/bandana-replica
//	curl 'localhost:8080/v1/lookup?table=table1&id=42'
//	curl -d '{"table":"table2","ids":[1,2,3]}' localhost:8080/v1/batch
//	curl localhost:8080/v1/stats
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"bandana/internal/cluster"
	"bandana/internal/core"
	"bandana/internal/iosched"
	"bandana/internal/nvm"
	"bandana/internal/server"
	"bandana/internal/synth"
	"bandana/internal/trace"
	"bandana/internal/version"
)

// validateIOFlags checks --io-qd before a store is opened. qdSet reports
// whether the operator passed it explicitly (flag.Visit); replica reports
// --replica-of mode.
func validateIOFlags(qd int, qdSet, replica bool) error {
	if replica && qdSet {
		return fmt.Errorf("--io-qd is incompatible with --replica-of: a replica bootstraps read-only snapshots and swaps the served store wholesale on every re-sync, so a per-store scheduler configuration cannot be honored")
	}
	if qd < 0 || qd > iosched.MaxTargetQueueDepth {
		return fmt.Errorf("--io-qd %d out of range [0,%d]", qd, iosched.MaxTargetQueueDepth)
	}
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		wireAddr = flag.String("wire-addr", "", "also serve the binary wire protocol (bwp) on this address, e.g. :8090 (empty = HTTP only)")
		scale    = flag.Float64("scale", 0.001, "table size scale vs the paper's 10-20M vectors")
		tables   = flag.Int("tables", 3, "number of embedding tables to serve (max 8)")
		requests = flag.Int("requests", 1500, "synthetic requests used for training")
		budget   = flag.Int("dram", 0, "DRAM budget in vectors (default: 5% of all vectors)")
		train    = flag.Bool("train", true, "train placement and caching before serving")
		seed     = flag.Int64("seed", 1, "random seed")
		stateOut = flag.String("save-state", "", "write the trained state to this file before serving")
		shards   = flag.Int("shards", 0, "cache lock shards per table (0 = auto from GOMAXPROCS)")
		backend  = flag.String("backend", core.BackendMem, "block store backend: mem or file")
		dataDir  = flag.String("data-dir", "", "data directory for the file backend (reused across runs)")
		syncStr  = flag.String("sync", "periodic", "file backend durability: none, periodic or always")
		direct   = flag.Bool("direct", false, "open the file backend's block file with O_DIRECT (honest NVM I/O, bypassing the page cache); falls back to buffered I/O where the filesystem rejects it")
		drift    = flag.Int("drift", 0, "rotate each synthetic table's hot communities every N requests (0 = stationary)")

		adaptEvery    = flag.Duration("adapt", 0, "online adaptation epoch interval (e.g. 30s); 0 disables adaptation")
		adaptRelayout = flag.Int("adapt-relayout", 4, "run the background re-layout pass every N adaptation epochs (0 = never)")
		adaptBudget   = flag.Int("adapt-budget", 0, "max NVM blocks migrated per adaptation epoch (0 = unlimited)")
		adaptSample   = flag.Int("adapt-sample", 1, "record 1 in N queries for adaptation (higher = cheaper)")

		ioQD = flag.Int("io-qd", 0, "NVM queue depth of the I/O scheduler that reads --direct misses: how many requests issue their misses at once — the realised depth, since one device call reads its blocks one after another — and the most blocks per device call (0 = default 8)")

		replicaOf   = flag.String("replica-of", "", "bootstrap from this primary's snapshot stream and serve read-only (requires --data-dir)")
		replicaPoll = flag.Duration("replica-poll", 2*time.Second, "how often a replica polls the primary's snapshot seq")

		pprofOn = flag.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/")
		slowMS  = flag.Int("slow-ms", 0, "log a structured per-stage breakdown for requests slower than this many milliseconds (0 = off; emission is rate-limited under overload)")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	qdSet := false
	flag.Visit(func(f *flag.Flag) { qdSet = qdSet || f.Name == "io-qd" })
	if err := validateIOFlags(*ioQD, qdSet, *replicaOf != ""); err != nil {
		log.Fatal(err)
	}
	if *tables < 1 {
		*tables = 1
	}
	if *tables > 8 {
		*tables = 8
	}
	syncMode, err := nvm.ParseSyncMode(*syncStr)
	if err != nil {
		log.Fatal(err)
	}

	// Replica mode: bootstrap from the primary and follow it. Everything
	// about local generation/training is irrelevant — the primary's
	// snapshot is the data.
	if *replicaOf != "" {
		if *dataDir == "" {
			log.Fatal("--replica-of requires --data-dir (snapshots are staged and served from it)")
		}
		// A replica serves its primary's snapshot read-only: flags that
		// would generate, train or adapt local state have nothing to act
		// on. Reject them loudly rather than silently dropping them.
		incompatible := map[string]bool{
			"scale": true, "tables": true, "requests": true, "dram": true,
			"train": true, "save-state": true, "backend": true, "drift": true,
			"adapt": true, "adapt-relayout": true, "adapt-budget": true,
			"adapt-sample": true, "seed": true, "shards": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if incompatible[f.Name] {
				log.Fatalf("--%s is incompatible with --replica-of (a replica serves its primary's snapshot read-only)", f.Name)
			}
		})
		rep, err := cluster.NewReplica(cluster.ReplicaOptions{
			PrimaryURL:   *replicaOf,
			DataDir:      *dataDir,
			Sync:         syncMode,
			Direct:       *direct,
			PollInterval: *replicaPoll,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("bootstrapping replica from %s into %s ...", *replicaOf, *dataDir)
		start := time.Now()
		store, seq, err := rep.Bootstrap()
		if err != nil {
			log.Fatal(err)
		}
		st := rep.Stats()
		log.Printf("replica bootstrapped at seq %d in %s (%d bytes streamed, resumed at offset %d)",
			seq, time.Since(start).Round(time.Millisecond), st.BytesFetched, st.LastResumeOffset)
		if *direct {
			logDirectIO(store)
		}
		serve(store, *addr, *wireAddr, nil, rep, *pprofOn, *slowMS)
		return
	}

	if *backend != core.BackendFile && *dataDir != "" {
		log.Fatalf("--data-dir requires --backend %s (got --backend %s)", core.BackendFile, *backend)
	}
	if *direct && *backend != core.BackendFile {
		log.Fatalf("--direct requires --backend %s (O_DIRECT applies to the block file)", core.BackendFile)
	}
	cfg := core.Config{
		DRAMBudgetVectors: *budget,
		Seed:              *seed,
		CacheShards:       *shards,
		Backend:           *backend,
		DataDir:           *dataDir,
		Sync:              syncMode,
		Direct:            *direct,
		IOSched:           core.IOSchedOptions{QueueDepth: *ioQD},
	}

	// Online adaptation: with --adapt the server records a sampled window of
	// live accesses and re-tunes caching/placement every interval — a store
	// started untrained converges on its real traffic without a restart.
	var adaptOpts *core.AdaptOptions
	if *adaptEvery > 0 {
		adaptOpts = &core.AdaptOptions{
			Interval:            *adaptEvery,
			RelayoutEvery:       *adaptRelayout,
			RelayoutBlockBudget: *adaptBudget,
			SampleEvery:         *adaptSample,
		}
	}

	reopening := *backend == core.BackendFile && core.DirInitialized(*dataDir)
	if reopening {
		log.Printf("reopening initialized data dir %s (no regeneration, no retraining)", *dataDir)
	} else {
		log.Printf("generating %d synthetic tables at scale %g", *tables, *scale)
		embTables, workload := synth.BuildWorkload(synth.Options{
			Scale: *scale, NumTables: *tables, Seed: *seed,
			Requests: *requests, DriftRotateEvery: *drift,
		})
		cfg.Tables = embTables

		store, err := openAndMaybeTrain(cfg, workload, *train, *requests, *stateOut)
		if err != nil {
			log.Fatal(err)
		}
		if *direct {
			logDirectIO(store)
		}
		serve(store, *addr, *wireAddr, adaptOpts, nil, *pprofOn, *slowMS)
		return
	}

	store, err := core.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *direct {
		logDirectIO(store)
	}
	if rec := store.UpdateLogStats().RecoveredRecords; rec > 0 {
		log.Printf("update-log recovery replayed %d update(s) from the previous run", rec)
	}
	if store.RecoveredMigration() {
		log.Printf("redid the layout install of table %q interrupted by the previous process", store.RecoveredMigrationTable())
	}
	if *train {
		log.Printf("--train ignored: a reopened data dir serves its persisted state (train at init time with 'bandana init --train')")
	}
	if *stateOut != "" {
		if err := writeStateFile(store, *stateOut); err != nil {
			store.Close()
			log.Fatal(err)
		}
		log.Printf("trained state written to %s", *stateOut)
	}
	serve(store, *addr, *wireAddr, adaptOpts, nil, *pprofOn, *slowMS)
}

// writeStateFile dumps the store's trained state to path.
func writeStateFile(store *core.Store, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := store.SaveState(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openAndMaybeTrain opens a freshly generated store and trains it from the
// synthetic workload. On the file backend, Train persists the result to the
// data dir so the next run can skip all of this.
func openAndMaybeTrain(cfg core.Config, workload *trace.Workload, train bool, requests int, stateOut string) (*core.Store, error) {
	store, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	log.Printf("serving with GOMAXPROCS=%d, %d cache shards per table",
		runtime.GOMAXPROCS(0), store.Stats()[0].CacheShards)

	if train {
		log.Printf("training placement and caching on %d requests...", requests)
		start := time.Now()
		report, err := store.Train(workload.Traces, core.TrainOptions{})
		if err != nil {
			store.Close()
			return nil, err
		}
		for _, tr := range report.Tables {
			log.Printf("  %-10s fanout %.1f -> %.1f (floor %.1f), cache %d vectors, %s",
				tr.Name, tr.InitialFanout, tr.FinalFanout, tr.FanoutFloor, tr.CacheVectors, tr.Thresholds())
		}
		log.Printf("training finished in %s", time.Since(start).Round(time.Millisecond))
		if dir := store.DataDir(); dir != "" {
			log.Printf("trained state persisted to %s", dir)
		}
		if stateOut != "" {
			if err := writeStateFile(store, stateOut); err != nil {
				store.Close()
				return nil, err
			}
			log.Printf("trained state written to %s", stateOut)
		}
	}
	return store, nil
}

// withPProf mounts the net/http/pprof handlers under /debug/pprof/ in front
// of next. The handlers are registered explicitly rather than by importing
// the package for its DefaultServeMux side effect, so profiling is opt-in
// (--pprof) and never reachable on a server started without the flag.
func withPProf(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}

// logDirectIO reports the negotiated O_DIRECT outcome for a --direct run:
// the open silently falls back to buffered I/O on filesystems that reject
// O_DIRECT, and the operator should know which mode they actually got.
func logDirectIO(store *core.Store) {
	if store.DeviceStats().Store.DirectIO {
		log.Printf("block file opened with O_DIRECT (page cache bypassed)")
	} else {
		log.Printf("O_DIRECT not supported by the data dir's filesystem; using buffered I/O")
	}
}

func serve(store *core.Store, addr, wireAddr string, adaptOpts *core.AdaptOptions, rep *cluster.Replica, pprofOn bool, slowMS int) {
	if adaptOpts != nil {
		if err := store.StartAdaptation(*adaptOpts); err != nil {
			store.Close()
			log.Fatal(err)
		}
		log.Printf("online adaptation enabled: epoch every %s, re-layout every %d epoch(s)",
			adaptOpts.Interval, adaptOpts.RelayoutEvery)
	}
	sched, _ := store.IOSchedStats()
	log.Printf("I/O scheduler: queue depth %d", sched.TargetQueueDepth)
	srv := server.New(store)
	if slowMS > 0 {
		srv.SetSlowRequestThreshold(time.Duration(slowMS) * time.Millisecond)
		log.Printf("slow-request log enabled: threshold %dms", slowMS)
	}
	handler := http.Handler(srv.Handler())
	if pprofOn {
		handler = withPProf(handler)
		log.Printf("pprof profiling handlers enabled under /debug/pprof/")
	}
	if rep != nil {
		// Follow the primary: each re-sync opens the new snapshot and swaps
		// it in; the server drains and closes the superseded store. Most seq
		// advances never reach this callback — they are absorbed by tailing
		// the primary's update log into the open store.
		go rep.Run(func(next *core.Store) {
			log.Printf("re-synced to primary snapshot seq %d", rep.ActiveSeq())
			srv.SwapStore(next)
		})
		// Expose how the replica is following (incremental batches vs full
		// re-syncs, restart backoff, stall flag) for operators.
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/replica/stats", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(rep.Stats())
		})
		mux.Handle("/", handler)
		handler = mux
	}
	httpServer := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// The wire listener serves bwp alongside HTTP; it shares the server's
	// store-swap discipline, so a replica re-sync is safe under wire load.
	var wireLn net.Listener
	if wireAddr != "" {
		var err error
		wireLn, err = net.Listen("tcp", wireAddr)
		if err != nil {
			store.Close()
			log.Fatalf("wire listener: %v", err)
		}
		go func() {
			if err := srv.ServeWire(wireLn); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("wire listener failed: %v", err)
			}
		}()
		log.Printf("bwp wire protocol listening on %s", wireLn.Addr())
	}

	// SIGINT/SIGTERM drain the listener and then Close the store: on the
	// file backend a clean Close flushes the block file and the update log,
	// so a restart replays every uncompacted update.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := <-sigc
		log.Printf("received %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Bounded drain: requests still running after the grace period are
		// abandoned and will see errors from the closing store.
		if err := httpServer.Shutdown(ctx); err != nil {
			log.Printf("drain timed out, closing with requests in flight: %v", err)
		}
	}()

	fmt.Printf("bandana-server listening on %s (%d tables, %s, backend %s)\n",
		addr, store.NumTables(), store.Device(), store.DeviceStats().Store.Backend)
	err := httpServer.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		srv.CurrentStore().Close()
		log.Fatal(err)
	}
	// ListenAndServe returns as soon as Shutdown starts; wait for the
	// bounded drain before closing the store. A replica stops following
	// first so a concurrent re-sync cannot swap a fresh store in under the
	// final Close (swapped-out stores were already closed by the server).
	<-drained
	if wireLn != nil {
		wireLn.Close()
	}
	if rep != nil {
		rep.Stop()
	}
	if err := srv.CurrentStore().Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("clean shutdown: store closed")
}
