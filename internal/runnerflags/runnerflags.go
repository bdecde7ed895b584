// Package runnerflags is the one place that turns the runner command-line
// flags shared by cmd/experiments and cmd/musstid into a measurement
// Runner: it declares -j -cache -batch -cachedir -dist -pipeline -launcher
// -worker, validates them, runs worker mode, and builds the Runner, its
// DiskCache and the -dist Coordinator with its worker argv. Each command
// keeps only its own flags.
package runnerflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"

	"mussti/internal/dist"
	"mussti/internal/eval"
)

// Flags holds the parsed runner flags. Call Validate after parsing and
// before any other method.
type Flags struct {
	Jobs     int
	Cache    bool
	Batch    bool
	CacheDir string
	Dist     string
	Pipeline int
	Launcher string
	Worker   bool

	// fleet is the -dist worker count Validate resolved; 0 without -dist.
	fleet int
}

// Register declares the runner flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Jobs, "j", 0, "worker count (0 = GOMAXPROCS)")
	fs.BoolVar(&f.Cache, "cache", true, "dedupe identical measurement points through the in-process measurement cache")
	fs.BoolVar(&f.Batch, "batch", true, "group same-circuit jobs into shared-prep batch compiles; with -dist, also coalesce jobs into batched wire envelopes")
	fs.StringVar(&f.CacheDir, "cachedir", "", "shared on-disk measurement cache directory: repeated runs, replicas and whole -dist fleets compile each point once, ever (needs -cache)")
	fs.StringVar(&f.Dist, "dist", "", "compile in N spawned worker processes (\"auto\" sizes the fleet from NumCPU)")
	fs.IntVar(&f.Pipeline, "pipeline", 0, "jobs kept in flight per -dist worker (0 = default window of 4; 1 = lockstep dispatch)")
	fs.StringVar(&f.Launcher, "launcher", "", "command prefix wrapping each -dist worker, e.g. \"ssh -o BatchMode=yes build-02\" (default: local processes)")
	fs.BoolVar(&f.Worker, "worker", false, "run as a distributed worker: read job envelopes on stdin, write measurement envelopes to stdout (what -dist spawns)")
	return f
}

// Validate checks the flag combination and resolves -dist. Every error is
// a misread command line, which the commands report with exit status 2
// before anything compiles.
func (f *Flags) Validate() error {
	switch f.Dist {
	case "":
		f.fleet = 0
	case "auto":
		f.fleet = runtime.NumCPU()
	default:
		n, err := strconv.Atoi(f.Dist)
		if err != nil || n <= 0 {
			return fmt.Errorf("-dist wants a positive worker count or \"auto\", got %q", f.Dist)
		}
		f.fleet = n
	}
	if f.Pipeline < 0 {
		return fmt.Errorf("-pipeline wants a window of at least 1 (or 0 for the default), got %d", f.Pipeline)
	}
	// A flag that depends on another one being set is never silently
	// ignored: fail like any other flag mistake.
	if f.fleet == 0 && (f.Pipeline > 0 || f.Launcher != "") {
		return errors.New("-pipeline and -launcher need -dist")
	}
	if f.CacheDir != "" && !f.Cache {
		return errors.New("-cachedir needs -cache")
	}
	return nil
}

// FleetSize is the number of -dist worker processes; 0 without -dist.
func (f *Flags) FleetSize() int { return f.fleet }

// ServeWorker runs worker mode: the process is one member of a -dist fleet.
// It speaks the job-envelope protocol on stdin/stdout through a one-worker
// Runner with the flags' cache, batching and disk cache, and returns when
// the coordinator closes the pipe or the process is interrupted. A non-nil
// progress receives the runner's per-job tick lines.
func (f *Flags) ServeWorker(progress io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r := eval.NewRunner(1)
	if err := f.configure(r); err != nil {
		return err
	}
	if progress != nil {
		r.SetProgress(progress)
	}
	return dist.ServeWorker(ctx, os.Stdin, os.Stdout, r)
}

// NewRunner builds the Runner the flags describe: -j workers in process,
// or, with -dist, a pool sized to the fleet whose jobs dispatch to spawned
// copies of this binary in worker mode. Scheduling, dedup and paper-order
// reassembly stay in this process either way, so output is byte-identical
// across modes. The Coordinator is nil without -dist; otherwise the caller
// must Close it.
func (f *Flags) NewRunner() (*eval.Runner, *dist.Coordinator, error) {
	workers := f.Jobs
	if f.fleet > 0 {
		workers = f.fleet
	}
	r := eval.NewRunner(workers)
	if err := f.configure(r); err != nil {
		return nil, nil, err
	}
	if f.fleet == 0 {
		return r, nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("-dist: %w", err)
	}
	argv, opts := f.workerCommand(exe)
	coord, err := dist.NewCoordinator(f.fleet, argv, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("-dist: %w", err)
	}
	r.SetRemote(coord)
	return r, coord, nil
}

// workerCommand returns the worker command line and coordinator options
// for a -dist fleet of exe.
func (f *Flags) workerCommand(exe string) ([]string, *dist.CoordinatorOptions) {
	argv := []string{exe, "-worker"}
	// -cache=false means "compile every point from scratch": workers must
	// not quietly serve stale measurements from a cache dir the coordinator
	// promised to ignore.
	if f.CacheDir != "" && f.Cache {
		argv = append(argv, "-cachedir", f.CacheDir)
	}
	// -batch reaches the whole transport: with it off, the workers skip
	// shared-prep batch compiles and the coordinator ships every job as its
	// own envelope instead of coalescing window-mates.
	if !f.Batch {
		argv = append(argv, "-batch=false")
	}
	opts := &dist.CoordinatorOptions{Pipeline: f.Pipeline, DisableCoalescing: !f.Batch}
	if f.Launcher != "" {
		opts.Launcher = dist.CommandLauncher{Prefix: strings.Fields(f.Launcher)}
	}
	return argv, opts
}

// configure applies -cache, -batch and -cachedir to r.
func (f *Flags) configure(r *eval.Runner) error {
	if !f.Cache {
		r.DisableCache()
	}
	if !f.Batch {
		r.DisableBatching()
	}
	if f.CacheDir == "" {
		return nil
	}
	dc, err := eval.NewDiskCache(f.CacheDir)
	if err != nil {
		return err
	}
	r.SetDiskCache(dc)
	return nil
}
