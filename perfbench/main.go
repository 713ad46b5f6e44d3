// Command perfbench is the repository's benchmark. It runs one named
// workload for one seed, checks the program's outputs, and prints one
// JSON object as the last line of standard output: whether the checks
// held, the phases attempted and failed, and every metric by name and
// unit. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones, from a run whose calls into
// each layer are timed from the benchmark's side.
//
//	go run . --workload finegrain-dense --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// procStart stands in for the process's start: package variables are
// initialized before main runs, after the Go runtime has started.
var procStart = time.Now()

type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one process's runs, checks and metrics.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	notes             []string // human-readable lines printed before the result
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(opts) (*report, error){
	"finegrain-dense":    runFinegrain,
	"detectors-openloop": runDetectors,
	"tcp-pipeline":       runTCPPipeline,
	"durable-rebalance":  runDurableRebalance,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o opts
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.IntVar(&o.workers, "workers", 2, "engine workers on the single-engine workloads (1 or 2)")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for traces and temporary WAL files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) || o.workers < 1 || o.workers > 2 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1, --workers 1 or 2")
		return 2
	}
	o.trace = trace == 1
	rep, err := drive(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	out, err := json.Marshal(result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
