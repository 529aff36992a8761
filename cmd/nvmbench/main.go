// Command nvmbench runs Fio-style micro-benchmarks against the simulated NVM
// device: a queue-depth sweep of 4 KB random reads (the paper's Figure 2),
// and a latency-vs-throughput curve for the baseline 128 B-per-block policy
// versus full 4 KB reads (Figure 5). Both drive the device directly; the I/O
// scheduler's batching is measured on the serving path by bench/.
//
// Usage:
//
//	nvmbench --mode qd                  # raw-device queue depth sweep (Figure 2)
//	nvmbench --mode qd --backend file   # same over the journaled file store
//	nvmbench --mode load --vector 128   # latency vs load (Figure 5)
//	nvmbench --mode qd --json out.json  # machine-readable results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"bandana/internal/nvm"
	"bandana/internal/version"
)

// jsonOutput is the machine-readable result file written by --json.
type jsonOutput struct {
	Benchmark  string                       `json:"benchmark"`
	Mode       string                       `json:"mode"`
	Backend    string                       `json:"backend"`
	Blocks     int                          `json:"blocks"`
	Jobs       int                          `json:"jobs,omitempty"`
	Ops        int                          `json:"opsPerWorker,omitempty"`
	VectorSize int                          `json:"vectorBytes,omitempty"`
	Seed       int64                        `json:"seed"`
	QueueDepth []nvm.FioResult              `json:"queueDepthSweep,omitempty"`
	Baseline   []nvm.ThroughputLatencyPoint `json:"baselineCurve,omitempty"`
	FullBlock  []nvm.ThroughputLatencyPoint `json:"fullBlockCurve,omitempty"`
}

// validateFlags rejects an unknown mode before any backing store is created.
func validateFlags(mode string) error {
	switch mode {
	case "qd", "load":
		return nil
	}
	return fmt.Errorf("unknown mode %q (want qd or load)", mode)
}

// sanitizeCurve replaces non-finite latencies (saturated points) with -1 so
// the curve survives JSON encoding.
func sanitizeCurve(pts []nvm.ThroughputLatencyPoint) []nvm.ThroughputLatencyPoint {
	out := make([]nvm.ThroughputLatencyPoint, len(pts))
	for i, p := range pts {
		if math.IsInf(p.MeanLatencyUS, 0) || math.IsNaN(p.MeanLatencyUS) {
			p.MeanLatencyUS = -1
		}
		if math.IsInf(p.P99LatencyUS, 0) || math.IsNaN(p.P99LatencyUS) {
			p.P99LatencyUS = -1
		}
		out[i] = p
	}
	return out
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func main() {
	var (
		mode        = flag.String("mode", "qd", "benchmark mode: qd (raw-device queue depth sweep) or load (latency vs throughput)")
		jobs        = flag.Int("jobs", 4, "concurrent jobs (qd mode)")
		ops         = flag.Int("ops", 500, "reads per worker (qd mode)")
		blocks      = flag.Int("blocks", 8192, "device size in 4 KB blocks")
		vectorSize  = flag.Int("vector", 128, "vector size in bytes (load mode baseline)")
		seed        = flag.Int64("seed", 1, "random seed")
		backend     = flag.String("backend", "mem", "block store backend: mem or file")
		dataDir     = flag.String("data-dir", "", "directory for the file backend's block file (default: temp dir)")
		syncStr     = flag.String("sync", "none", "file backend durability: none, periodic or always")
		direct      = flag.Bool("direct", false, "open block files with O_DIRECT (file backend; falls back to buffered I/O where unsupported)")
		jsonOut     = flag.String("json", "", "also write machine-readable results to this file")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	// Validate flags before creating any backing store, so a typo does not
	// leave a file store opened (and its temp dir leaked via os.Exit).
	if err := validateFlags(*mode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var store nvm.BlockStore
	switch *backend {
	case "mem":
		// nil lets NewDevice create a MemStore of the right size.
	case "file":
		syncMode, err := nvm.ParseSyncMode(*syncStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		dir := *dataDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "nvmbench-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer os.RemoveAll(dir)
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fs, _, err := nvm.OpenOrCreateFileStore(filepath.Join(dir, "bench-blocks.bnd"), *blocks,
			nvm.FileStoreOptions{Sync: syncMode, Direct: *direct})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *direct && !fs.DirectIO() {
			fmt.Fprintln(os.Stderr, "note: O_DIRECT not supported here; measuring buffered I/O")
		}
		store = fs
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backend)
		os.Exit(2)
	}

	device := nvm.NewDevice(nvm.DeviceConfig{NumBlocks: *blocks, Store: store, Seed: *seed})
	defer device.Close()

	out := jsonOutput{
		Benchmark: "nvmbench", Mode: *mode, Backend: *backend,
		Blocks: *blocks, Seed: *seed,
	}
	switch *mode {
	case "qd":
		fmt.Printf("4 KB random reads, %d jobs, device %s\n\n", *jobs, device)
		fmt.Printf("%-12s %-18s %-18s %-18s %-16s\n", "queue depth", "mean latency (us)", "p99 latency (us)", "p999 latency (us)", "bandwidth (GB/s)")
		out.Jobs, out.Ops = *jobs, *ops
		out.QueueDepth = nvm.QueueDepthSweep(device, *jobs, []int{1, 2, 4, 8}, *ops, *seed)
		for _, res := range out.QueueDepth {
			fmt.Printf("%-12d %-18.1f %-18.1f %-18.1f %-16.2f\n", res.QueueDepth, res.MeanLatencyUS, res.P99LatencyUS, res.P999LatencyUS, res.BandwidthGBs)
		}
	case "load":
		model := device.Model()
		frac := float64(*vectorSize) / float64(nvm.BlockSize)
		sweep := []float64{10, 25, 50, 70, 100, 250, 500, 1000, 1500, 2000, 2300}
		baseline := nvm.ThroughputLatencyCurve(model, frac, sweep)
		full := nvm.ThroughputLatencyCurve(model, 1.0, sweep)
		out.VectorSize = *vectorSize
		// Saturated points carry +Inf latencies, which JSON cannot encode;
		// -1 marks them in the artifact (Saturated is set alongside).
		out.Baseline, out.FullBlock = sanitizeCurve(baseline), sanitizeCurve(full)
		fmt.Printf("baseline = %d B useful per 4 KB block read (%.1f%% effective bandwidth)\n\n", *vectorSize, frac*100)
		fmt.Printf("%-22s %-20s %-20s %-20s %-20s\n",
			"app throughput (MB/s)", "baseline mean (us)", "baseline p99 (us)", "4KB-read mean (us)", "4KB-read p99 (us)")
		f := func(v float64, sat bool) string {
			if sat || math.IsInf(v, 1) {
				return "saturated"
			}
			return fmt.Sprintf("%.1f", v)
		}
		for i := range sweep {
			fmt.Printf("%-22.0f %-20s %-20s %-20s %-20s\n", sweep[i],
				f(baseline[i].MeanLatencyUS, baseline[i].Saturated),
				f(baseline[i].P99LatencyUS, baseline[i].Saturated),
				f(full[i].MeanLatencyUS, full[i].Saturated),
				f(full[i].P99LatencyUS, full[i].Saturated))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nresults written to %s\n", *jsonOut)
	}
}
