// Command musstibench is the repository's end-to-end benchmark. It runs one
// seeded workload against the public entry points of every layer of the
// MUSS-TI reproduction, checks that the outputs are correct, and prints one
// JSON result line:
//
//	bash e2ebench/run.sh --workload paper-eval --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a separate traced run, and the spans are
// written to .bench_build/out/ (summarise them with --summarize FILE).
// README.md beside this file describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every input of the workload is generated from")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics; 0 reports end-to-end metrics")
	summarize := flag.String("summarize", "", "print the per-layer summary of a written trace file and exit")
	writeDigest := flag.Bool("write-digest", false, "run one paper-eval pass and rewrite digest.json from its tables (deliberate regeneration only)")
	worker := flag.Bool("worker", false, "serve the dist job protocol on stdin/stdout (what fleet-sweep spawns)")
	pass := flag.String("pass", "", "run one paper-eval pass in this process: \"run\" or \"setup\" (what paper-eval spawns)")
	order := flag.String("order", "", "comma-separated experiment IDs in submission order, for -pass")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *worker:
		return serveWorker(ctx)
	case *pass != "":
		return paperPassMain(ctx, *pass, *order)
	case *summarize != "":
		return summarizeMain(*summarize)
	case *writeDigest:
		return writeDigestMain(ctx)
	}

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "musstibench: unknown -workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "musstibench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	rc := runConfig{seed: *seed, dur: time.Duration(*seconds) * time.Second}
	st := stampOf(*workload, *seed, *trace == 1)
	// The stamp travels with the result: one record line before the result
	// line, and the header of any trace file.
	stampLine, _ := json.Marshal(map[string]any{"record": st})
	fmt.Println(string(stampLine))

	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(ctx, w, rc, st)
	} else {
		res, err = untracedRun(ctx, w, rc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstibench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstibench:", err)
		return 1
	}
	// A failed correctness gate fails the run through the result itself
	// (correct: false); the exit code reports only whether a result exists.
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "musstibench: %d of %d operations failed the correctness gate\n", res.Failed, res.Attempted)
	}
	return 0
}

// runConfig is what every workload receives: the seed its inputs come
// from and how long to measure.
type runConfig struct {
	seed uint64
	dur  time.Duration
}

// workload is one benchmark workload. run measures it untraced (tr == nil)
// or traced; either way it returns its operation counts, the problems the
// correctness gate found, and the metrics it measured.
type workload struct {
	name string
	run  func(ctx context.Context, rc runConfig, tr *tracer) (*outcome, error)
}

// outcome is one workload run's raw result. e2e holds end-to-end metrics
// (untraced runs), layer the workload-level per-layer metrics (traced runs),
// and headline the metric trace.overhead_ratio compares across the two.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	headline  float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]workload{
	"paper-eval":  {name: "paper-eval", run: runPaperEval},
	"serve-mixed": {name: "serve-mixed", run: runServeMixed},
	"fleet-sweep": {name: "fleet-sweep", run: runFleetSweep},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultOf packages an outcome's values under the declared metric names;
// a declared metric the run did not produce is an error, never a silent 0.
func resultOf(o *outcome, values map[string]float64, decl []metricDecl) (result, error) {
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "musstibench: check failed:", p)
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		return res, fmt.Errorf("the run attempted no operation")
	}
	for _, d := range decl {
		v, ok := values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func untracedRun(ctx context.Context, w workload, rc runConfig) (result, error) {
	o, err := w.run(ctx, rc, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	o.e2e["ok_ratio"] = 1 - float64(o.failed)/float64(max(o.attempted, 1))
	for _, d := range tails {
		fmt.Fprintf(os.Stderr, "musstibench: %s %s = %g %s (unbounded)\n", w.name, d.name, o.e2e[d.name], d.unit)
	}
	return resultOf(o, o.e2e, endToEnd)
}

// stamp identifies the code and machine a result was measured on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Time       string `json:"time"`
}

func stampOf(workload string, seed uint64, traced bool) stamp {
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
		Commit:     commitOf(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// commitOf reads the VCS revision the go command stamped into the binary;
// a build outside a git checkout has none.
func commitOf() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
