// Command bandana runs the Bandana experiment suite: it regenerates the
// tables and figures of the paper's evaluation against the simulated NVM
// substrate and prints them as text tables. It also initializes durable
// data directories (`bandana init`) that bandana-server reopens across runs.
//
// Usage:
//
//	bandana list                      # list available experiments
//	bandana run --exp fig9            # run one experiment
//	bandana run --all                 # run the full evaluation
//	bandana run --all --quick         # reduced sizes (smoke test)
//	bandana init --data-dir /var/lib/bandana --scale 0.001 --train
//
// Scale flags trade fidelity for runtime: --scale is the table size relative
// to the paper's 10-20M-vector tables (Table 1).
package main

import (
	"flag"
	"fmt"
	"os"

	"bandana/internal/experiments"
	"bandana/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "version", "--version", "-version":
		fmt.Println(version.String())
	case "list":
		titles := experiments.Titles()
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-20s %s\n", id, titles[id])
		}
	case "run":
		if err := runCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case "init":
		if err := initCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `bandana — reproduce the paper's evaluation

commands:
  list                list available experiments
  run [flags]         run experiments
  init [flags]        write (and optionally train) a durable data dir that
                      bandana-server --backend=file reopens without retraining
  version             print the build version

run flags:
  --exp <id>          experiment to run (repeatable via comma separation)
  --all               run every experiment
  --quick             reduced scale (fast smoke test)
  --scale <f>         table size scale vs the paper (default 0.004)
  --train <n>         training requests (default 3000)
  --eval <n>          evaluation requests (default 1500)
  --seed <n>          random seed (default 1)

init flags:
  --data-dir <dir>    target directory (required)
  --scale <f>         table size scale (default 0.001)
  --tables <n>        number of tables (default 3, max 8)
  --requests <n>      training requests (default 1500)
  --train             train placement + caching after ingest (default true)
  --dram <n>          DRAM budget in vectors (default: 5% of all vectors)
  --sync <mode>       durability mode: none, periodic, always (default periodic)
  --seed <n>          random seed (default 1)`)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		exp   = fs.String("exp", "", "experiment id(s), comma separated")
		all   = fs.Bool("all", false, "run every experiment")
		quick = fs.Bool("quick", false, "reduced scale")
		scale = fs.Float64("scale", 0, "table size scale vs the paper")
		train = fs.Int("train", 0, "training requests")
		eval  = fs.Int("eval", 0, "evaluation requests")
		seed  = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	if *train > 0 {
		opts.TrainRequests = *train
	}
	if *eval > 0 {
		opts.EvalRequests = *eval
	}
	opts.Seed = *seed

	runner := experiments.NewRunner(opts)
	if *all {
		for _, id := range experiments.IDs() {
			t, err := runner.Run(id)
			if err != nil {
				return err
			}
			t.Format(os.Stdout)
		}
		return nil
	}
	if *exp == "" {
		return fmt.Errorf("specify --exp <id> or --all (try 'bandana list')")
	}
	for _, id := range splitComma(*exp) {
		t, err := runner.Run(id)
		if err != nil {
			return err
		}
		t.Format(os.Stdout)
	}
	return nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
