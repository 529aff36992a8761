// Command bench is the repository's benchmark: it generates a dataset from
// --seed, stands the real serving stack up in this process over loopback TCP,
// drives one workload against it, checks every returned vector against an
// independent oracle and prints every metric by name with its unit. The last
// line of standard output is one JSON object (see BENCHMARK.json and
// README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// output is the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// commit is the revision the benchmark was built from: run.sh passes it (a
// driver's checkout is not a git repository, so it may be unknown).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: hot_bwp, cold_bwp, mixed_bwp or routed_http")
		seed    = flag.Int64("seed", 1, "seed all inputs are generated from")
		secs    = flag.Float64("seconds", 10, "how long the run measures")
		trace   = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		check   = flag.Bool("check", false, "run every workload twice with the same seed and compare the two")
		direct  = flag.Bool("direct", false, "open the block files with O_DIRECT (a host with a real NVM device)")
		workDir = flag.String("work-dir", ".bench_build/data", "scratch directory for the stores' data")
		outDir  = flag.String("out-dir", "bench/out", "where the traced run writes its spans")
		corrupt = flag.Bool("corrupt-oracle", false, "self-test: corrupt one oracle vector; the run must fail")
	)
	flag.Parse()
	if err := validateDefs(endToEnd, perLayer); err != nil {
		fatal(err)
	}
	host, _ := os.Hostname()
	fmt.Printf("# bench host=%s gomaxprocs=%d go=%s commit=%s\n", host, runtime.GOMAXPROCS(0), runtime.Version(), commit())
	o := runOptions{Seed: *seed, Seconds: *secs, Direct: *direct, OutDir: *outDir, Corrupt: *corrupt,
		WorkDir: filepath.Join(*workDir, fmt.Sprint(os.Getpid()))}
	defer os.RemoveAll(o.WorkDir)

	if *check {
		if err := selfCheck(o); err != nil {
			os.RemoveAll(o.WorkDir)
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runOne(w, o, *trace)
	if err != nil {
		os.RemoveAll(o.WorkDir)
		fatal(err)
	}
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.report.metrics()}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.RemoveAll(o.WorkDir)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload and prints its metrics as a table.
func runOne(w workload, o runOptions, trace int) (*result, error) {
	run := runTimed
	if trace != 0 {
		run = runTraced
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d clients=%d\n", w.Name, o.Seed, o.Seconds, trace, nClients())
	res, err := run(w, o)
	if err != nil {
		return nil, err
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, d := range res.report.defs {
		fmt.Printf("%-36s %16.4f %s\n", d.Name, res.report.values[d.Name], d.Unit)
	}
	fmt.Printf("# attempted=%d failed=%d\n", res.attempted, res.failed)
	for _, e := range res.errs {
		fmt.Println("# FAILED:", e)
	}
	return res, nil
}

// exactMetrics come from the count replay and must repeat bit for bit.
var exactMetrics = map[string]bool{"nvm_reads_per_klookup": true}

// selfCheck runs every workload twice with the same seed and fails if an
// end-to-end metric moved by more than its bound, or a count-replay metric
// moved at all.
func selfCheck(o runOptions) error {
	var bad []string
	for _, w := range workloads {
		var runs [2]*result
		for i := range runs {
			res, err := runOne(w, o, 0)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				bad = append(bad, fmt.Sprintf("%s: %d of %d operations failed", w.Name, res.failed, res.attempted))
			}
			runs[i] = res
		}
		for _, d := range endToEnd {
			a, b := runs[0].report.values[d.Name], runs[1].report.values[d.Name]
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			switch {
			case exactMetrics[d.Name] && a != b:
				bad = append(bad, fmt.Sprintf("%s %s: %v then %v, must repeat exactly", w.Name, d.Name, a, b))
			case worse > d.Bound || -worse > d.Bound:
				bad = append(bad, fmt.Sprintf("%s %s: %v then %v, bound %.0f%%", w.Name, d.Name, a, b, 100*d.Bound))
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Println("# CHECK FAILED:", b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("self-check: %d differences between two runs of the same seed", len(bad))
	}
	fmt.Println("# self-check passed")
	return nil
}
