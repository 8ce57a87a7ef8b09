// Command benchmark is the analysis system's end-to-end benchmark. It
// synthesizes a capture from a seed, runs one workload through the same
// public entry points the commands use (pipeline.ProfilerGraph +
// pipeline.NewRunner for cmd/profiler, service.New + its HTTP handler
// for cmd/unchartedd), checks the output against an oracle computed in
// the same run outside the timed window, and prints one JSON result as
// its last line of standard output.
//
//	go run . --workload y1_offline --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead runs the per-layer ladder: timed batches of
// calls into each layer's public functions on the workload's own data.
// See README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run produces.
type result struct {
	// Metrics holds the bounded metrics the final line reports: the
	// end-to-end set untraced, the per-layer set traced.
	Metrics map[string]metric
	// Report holds every metric the workload measures, the bounded set
	// included, for the human-readable listing and the result file.
	Report    map[string]metric
	Attempted int64
	Failed    int64
	// Problems lists every oracle mismatch; any entry fails the run.
	Problems []string
	// Record is the machine and input description.
	Record map[string]any
	// Spans is the traced run's span list.
	Spans []span
}

// options are the command-line settings shared by every workload.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Smoke shrinks every input to a tiny scale: a functional check of
	// the whole harness, not a measurement.
	Smoke bool
	// Work is the scratch directory for captures and historians.
	Work string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options) (*result, error){
	"y1_offline":      runY1Offline,
	"mixed_historian": runMixedHistorian,
	"control_room":    runControlRoom,
}

func main() {
	var (
		o       options
		trace   int
		results string
	)
	flag.StringVar(&o.Workload, "workload", "", "workload: y1_offline, mixed_historian or control_room")
	flag.Int64Var(&o.Seed, "seed", 1, "input seed")
	flag.Float64Var(&o.Seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
	flag.BoolVar(&o.Smoke, "smoke", false, "tiny inputs: check the harness end to end, measure nothing")
	flag.StringVar(&o.Work, "work", ".bench_build/work", "scratch directory for captures and historians")
	flag.StringVar(&results, "results", ".bench_build/results", "directory for the detailed result files")
	flag.Parse()
	o.Trace = trace == 1
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")

	run, ok := workloads[o.Workload]
	if !ok {
		log.Fatalf("unknown workload %q", o.Workload)
	}
	work, err := os.MkdirTemp(ensureDir(o.Work), o.Workload+"-")
	if err != nil {
		log.Fatal(err)
	}
	o.Work = work
	res, err := run(context.Background(), o)
	if rerr := os.RemoveAll(work); rerr != nil {
		log.Printf("removing %s: %v", work, rerr)
	}
	if err != nil {
		log.Fatal(err)
	}
	res.Record["max_rss_mb"] = maxRSSMB()
	if err := writeResult(os.Stdout, results, o, res); err != nil {
		log.Fatal(err)
	}
	if len(res.Problems) > 0 {
		os.Exit(1)
	}
}

func ensureDir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	return dir
}

// writeResult prints the machine record, every measured metric by name
// with its unit, any oracle problem, and the final JSON line; the full
// result (spans included) goes to a file under dir.
func writeResult(w io.Writer, dir string, o options, res *result) error {
	rec, err := json.Marshal(res.Record)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", rec)
	names := make([]string, 0, len(res.Report))
	for n := range res.Report {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Report[n]
		fmt.Fprintf(w, "metric %-40s %16.6f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "oracle FAILED: %s\n", p)
	}

	mode := "e2e"
	if o.Trace {
		mode = "trace"
	}
	full, err := json.MarshalIndent(map[string]any{
		"record":    res.Record,
		"metrics":   res.Report,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"problems":  res.Problems,
		"spans":     res.Spans,
	}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(ensureDir(dir), fmt.Sprintf("%s-seed%d-%s.json", o.Workload, o.Seed, mode))
	if err := os.WriteFile(path, full, 0o644); err != nil {
		return err
	}

	last, err := json.Marshal(map[string]any{
		"correct":   len(res.Problems) == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// pick copies the named metrics out of the report; a name the workload
// did not measure is a harness bug.
func pick(report map[string]metric, names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := report[n]
		if !ok {
			panic("benchmark: metric " + n + " not measured")
		}
		out[n] = m
	}
	return out
}

// deadline returns when a measurement window that starts now ends.
func deadline(o options) time.Time {
	return time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
}
