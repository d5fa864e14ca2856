// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads built from the simulator's public packages —
// the Fig. 9 trace replay, the 16-node ext-cluster replay and the
// Table 1 / Fig. 7 characterization — for a fixed host-time budget,
// checks every repetition's simulated outputs, and prints one JSON
// object as its last line of standard output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload replay --seed 11 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics (host speed,
// host memory and the model's own outcomes). With --trace 1 the same
// repetitions run twice — untimed-by-layer, then with per-layer timing,
// event counters, the invariant checker and a CPU profile — and the
// JSON carries the per-layer table. DESIGN.md in this directory
// records why each workload and metric was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are further figures for the human-readable table only.
	notes map[string]metric
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 20, "host seconds to keep repeating the workload")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer table")
	profDir := fs.String("profile-dir", ".bench_build/perfbench", "directory for the traced run's CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	var rep *report
	var err error
	if *traced == 1 {
		rep, err = runTraced(w, *seed, *seconds, *profDir)
	} else {
		rep, err = runTimed(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printTable(w.name, rep)
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printTable writes the metrics as a human-readable table to standard
// error, so standard output stays one JSON line.
func printTable(workload string, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "# %s: %d attempted, %d failed\n", workload, rep.Attempted, rep.Failed)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	notes := make([]string, 0, len(rep.notes))
	for n := range rep.notes {
		notes = append(notes, n)
	}
	sort.Strings(notes)
	for _, n := range notes {
		m := rep.notes[n]
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
