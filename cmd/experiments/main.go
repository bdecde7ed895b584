// Command experiments regenerates the tables and figures of the MUSS-TI
// paper (MICRO 2025). Without flags it runs everything in paper order;
// -exp selects one ("table2", "fig6", ... "fig13"), -list enumerates the
// registered compilers and the experiment IDs. -compilers=a,b restricts an
// experiment to a subset of the registered compilers — or widens it to an
// out-of-tree compiler registered via mussti.RegisterCompiler.
// Measurements fan out over a worker pool by default (-parallel=false for
// strictly sequential runs, -j to pin the worker count); the worker count
// never changes the rendered tables. Identical measurement points shared by
// several experiments compile once per process through the cross-experiment
// cache (-cache=false to disable it). fig10/fig11 report wall-clock compile
// times, so their own measurements always run serially and uncached — for
// faithful timing curves run them alone (-exp fig10) rather than in all
// mode, where concurrent neighbour experiments still compete for CPU. The
// runner flags (-j -cache -cachedir -dist -pipeline -launcher -worker)
// mean the same here as in cmd/musstid; internal/runnerflags owns them.
//
//	go run ./cmd/experiments -exp table2
//	go run ./cmd/experiments -exp table2 -compilers=dai,mussti
//	go run ./cmd/experiments -j 4 -progress     # full evaluation, tick lines
//	go run ./cmd/experiments -csv results.csv   # structured rows to a file
//	go run ./cmd/experiments -parallel=false
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mussti"
	"mussti/internal/runnerflags"
)

func main() { os.Exit(realMain()) }

// realMain is main with an exit code instead of os.Exit calls, so the
// deferred profile writers (and any other cleanup) always run — os.Exit
// would skip them.
func realMain() int {
	exp := flag.String("exp", "", "experiment ID to run (default: all)")
	list := flag.Bool("list", false, "list registered compilers and experiment IDs, then exit")
	compilers := flag.String("compilers", "", "comma-separated registry names; experiments measure only these compilers (default: each experiment's paper set)")
	parallel := flag.Bool("parallel", true, "fan measurements (and, in all-experiments mode, whole experiments) out over a worker pool; -j, -cache, -cachedir and -progress need it, -dist implies it")
	rf := runnerflags.Register(flag.CommandLine)
	progress := flag.Bool("progress", false, "print per-job progress tick lines to stderr (needs -parallel)")
	csvPath := flag.String("csv", "", "write every structured Measurement row to this CSV file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	flag.Parse()

	// Flag mistakes fail up front, before anything compiles.
	if err := rf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 2
	}

	// Profiling flags so perf work on the compilers is driven by pprof
	// rather than guesswork:
	//
	//	go run ./cmd/experiments -exp fig10 -parallel=false -cpuprofile cpu.out
	//	go tool pprof cpu.out
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -cpuprofile:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
			}
		}()
	}

	// Worker mode: the process is one member of a -dist fleet. Jobs run
	// through the same Runner path as everywhere else, so the worker's own
	// memoization and the shared -cachedir store apply.
	if rf.Worker {
		var tick io.Writer
		if *progress {
			tick = os.Stderr
		}
		if err := rf.ServeWorker(tick); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: worker:", err)
			return 1
		}
		return 0
	}

	if *list {
		fmt.Println("registered compilers:")
		for _, c := range mussti.Compilers() {
			fmt.Printf("  %-8s %s\n", c.Name(), mussti.CompilerLabel(c))
		}
		fmt.Println("\nexperiments:")
		for _, e := range mussti.ExperimentList() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Description)
		}
		return 0
	}

	// -compilers validates up front, so a typo fails with the registry's
	// name list instead of surfacing mid-run from inside an experiment.
	var comps []string
	if *compilers != "" {
		for _, name := range strings.Split(*compilers, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := mussti.LookupCompiler(name); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 2
			}
			comps = append(comps, name)
		}
	}

	// Interrupt cancels the run mid-measurement: in-flight compiles abort
	// within one scheduler step, queued ones are skipped, and the failure
	// surfaces per experiment. stop() runs as soon as the first signal
	// lands so that a second interrupt regains default handling and kills
	// the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	var runner *mussti.Runner
	if rf.FleetSize() > 0 || *parallel {
		r, fleet, err := rf.NewRunner()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		if fleet != nil {
			defer fleet.Close()
		}
		if *progress {
			r.SetProgress(os.Stderr)
		}
		runner = r
	} else {
		if *progress || !rf.Cache {
			fmt.Fprintln(os.Stderr, "experiments: -progress and -cache need -parallel; ignoring")
		}
		if rf.CacheDir != "" {
			fmt.Fprintln(os.Stderr, "experiments: -cachedir needs -parallel or -dist; ignoring")
		}
	}

	// run renders one experiment with its banner and timing footer, and
	// hands back its structured measurement rows for the CSV sink.
	run := func(e mussti.ExperimentInfo) (string, []mussti.Measurement, error) {
		start := time.Now() //mussti:allow=determinism wall-clock banner timing, not measured output
		out, ms, err := e.CollectWith(ctx, runner, comps)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		return fmt.Sprintf("== %s — %s ==\n\n%s(completed in %s)\n\n",
			e.ID, e.Description, out, time.Since(start).Round(time.Millisecond)), ms, nil //mussti:allow=determinism wall-clock banner timing, not measured output
	}

	var collected []mussti.Measurement
	// finish reports cache stats and flushes the CSV sink; it returns a
	// non-zero exit code when the CSV cannot be written.
	finish := func() int {
		if runner != nil {
			if hits, misses := runner.CacheStats(); hits > 0 {
				fmt.Fprintf(os.Stderr, "experiments: measurement cache served %d of %d points without compiling\n",
					hits, hits+misses)
			}
			// The disk line is the contract the CI dist-smoke job greps: a
			// second run against a warm -cachedir must report hits == total.
			if hits, misses := runner.DiskCacheStats(); hits+misses > 0 {
				fmt.Fprintf(os.Stderr, "experiments: disk cache served %d of %d points\n",
					hits, hits+misses)
			}
		}
		if *csvPath == "" {
			return 0
		}
		f, err := os.Create(*csvPath)
		if err == nil {
			err = mussti.WriteMeasurementsCSV(f, collected)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing csv:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d measurement rows to %s\n", len(collected), *csvPath)
		return 0
	}

	if *exp != "" {
		for _, e := range mussti.ExperimentList() {
			if e.ID != *exp {
				continue
			}
			out, ms, err := run(e)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return 1
			}
			fmt.Print(out)
			collected = ms
			return finish()
		}
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; use -list\n", *exp)
		return 2
	}

	// All-experiments mode: every experiment runs even when earlier ones
	// fail; failures print as they surface and the process exits non-zero
	// at the end. With a runner, experiments execute concurrently — their
	// measurements share the runner's global worker budget and measurement
	// cache — while output (and the CSV rows) stay in paper order.
	exps := mussti.ExperimentList()
	type result struct {
		out string
		ms  []mussti.Measurement
		err error
	}
	results := make([]chan result, len(exps))
	for i, e := range exps {
		results[i] = make(chan result, 1)
		if runner == nil {
			continue
		}
		go func(i int, e mussti.ExperimentInfo) {
			out, ms, err := run(e)
			results[i] <- result{out, ms, err}
		}(i, e)
	}
	failed := 0
	for i, e := range exps {
		var res result
		if runner == nil {
			res.out, res.ms, res.err = run(e)
		} else {
			res = <-results[i]
		}
		if res.err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", res.err)
			failed++
			continue
		}
		fmt.Print(res.out)
		collected = append(collected, res.ms...)
	}
	code := finish()
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d experiments failed\n", failed, len(exps))
		return 1
	}
	return code
}
