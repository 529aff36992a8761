package main

import (
	"flag"
	"fmt"

	"bandana/internal/core"
	"bandana/internal/nvm"
	"bandana/internal/synth"
)

// initCmd ingests synthetic tables into a durable file-backed data dir —
// the write-once path. The directory is then reopened (by bandana-server
// --backend=file, or another `bandana init` invocation, which refuses to
// clobber it) with vectors and trained state intact and no retraining.
func initCmd(args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	var (
		dataDir  = fs.String("data-dir", "", "target data directory (required)")
		scale    = fs.Float64("scale", 0.001, "table size scale vs the paper's 10-20M vectors")
		tables   = fs.Int("tables", 3, "number of embedding tables (max 8)")
		requests = fs.Int("requests", 1500, "synthetic requests used for training")
		train    = fs.Bool("train", true, "train placement and caching after ingest")
		syncStr  = fs.String("sync", "periodic", "durability mode: none, periodic or always")
		direct   = fs.Bool("direct", false, "ingest through O_DIRECT (falls back to buffered I/O where unsupported)")
		seed     = fs.Int64("seed", 1, "random seed")
		budget   = fs.Int("dram", 0, "DRAM budget in vectors (default: 5% of all vectors)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("--data-dir is required")
	}
	if core.DirInitialized(*dataDir) {
		return fmt.Errorf("data dir %s is already initialized (delete it to re-ingest)", *dataDir)
	}
	if *tables < 1 {
		*tables = 1
	}
	if *tables > 8 {
		*tables = 8
	}
	syncMode, err := nvm.ParseSyncMode(*syncStr)
	if err != nil {
		return err
	}

	fmt.Printf("generating %d synthetic tables at scale %g\n", *tables, *scale)
	embTables, workload := synth.Build(*scale, *tables, *seed, *requests)

	store, err := core.Open(core.Config{
		Tables:            embTables,
		DRAMBudgetVectors: *budget,
		Seed:              *seed,
		Backend:           core.BackendFile,
		DataDir:           *dataDir,
		Sync:              syncMode,
		Direct:            *direct,
	})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			store.Close()
		}
	}()
	if *direct {
		if store.DeviceStats().Store.DirectIO {
			fmt.Println("block file opened with O_DIRECT (page cache bypassed)")
		} else {
			fmt.Println("O_DIRECT not supported by the data dir's filesystem; using buffered I/O")
		}
	}
	fmt.Printf("ingested %d tables onto %s\n", store.NumTables(), store.Device())

	if *train {
		fmt.Printf("training placement and caching on %d requests...\n", *requests)
		report, err := store.Train(workload.Traces, core.TrainOptions{})
		if err != nil {
			return err
		}
		for _, tr := range report.Tables {
			fmt.Printf("  %s\n", tr)
		}
	}
	// The final Close performs the flush that makes the ingest durable —
	// its error decides whether the dir is actually ready.
	closed = true
	if err := store.Close(); err != nil {
		return fmt.Errorf("flush data dir: %w", err)
	}
	fmt.Printf("data dir %s ready: serve it with\n  bandana-server --backend file --data-dir %s\n",
		*dataDir, *dataDir)
	return nil
}
