package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mussti/internal/arch"
	"mussti/internal/core"
	"mussti/internal/dist"
	"mussti/internal/eval"
)

// fleet-sweep: a closed loop. Sweeps of unique, seeded, small design-space
// points go through Runner.SetRemote to a pipelined dist.Coordinator whose
// workers run the same ServeWorker entry as `cmd/experiments -worker`.
// Coordinator.Capacity clients each submit their next job when the last
// one is answered.

const (
	fleetWorkers = 2
	// sweepJobs is the size of one sweep; eval_wall_s is a sweep's wall.
	sweepJobs = 400
	// tracedSweeps is the fixed work of each half of a traced run, so its
	// counts repeat exactly.
	tracedSweeps = 4
	// fleetLimit is the latency limit slo_ok_ratio counts jobs against.
	fleetLimit = 100 * time.Millisecond
)

var (
	fleetFamilies  = []string{"GHZ", "BV", "QAOA", "Adder", "QFT"}
	fleetCompilers = []string{"mussti", "murali", "dai", "mqt"}
	// fleetGrids are the baselines' grid targets; a job takes one with
	// room for at least 1.5 ions per qubit.
	fleetGrids = []struct{ rows, cols, capacity int }{
		{2, 2, 12}, {2, 3, 8}, {2, 3, 12}, {3, 3, 8}, {3, 4, 8},
	}
)

// jobGen draws unique design-space points from a seeded stream.
type jobGen struct {
	seed  uint64
	drawn int // points handed out so far
	rng   *rand.Rand
	seen  map[uint64]bool // cache-key hashes, so memory stays small
	grids []*arch.Grid    // fleetGrids, built once and shared by the jobs
}

func newJobGen(seed uint64) (*jobGen, error) {
	g := &jobGen{seed: seed, rng: rand.New(rand.NewSource(int64(seed) ^ 0x5eed)), seen: map[uint64]bool{}}
	for _, gr := range fleetGrids {
		grid, err := arch.NewGrid(gr.rows, gr.cols, gr.capacity)
		if err != nil {
			return nil, err
		}
		g.grids = append(g.grids, grid)
	}
	return g, nil
}

// clone returns a generator that will draw the same points g draws next.
func (g *jobGen) clone() *jobGen {
	c, _ := newJobGen(g.seed) // g was built from the same seed without error
	c.grids = g.grids
	c.jobs(g.drawn)
	return c
}

// spec draws one point: a family at 12–48 qubits, a compiler (MUSS-TI on
// its default EML device, a baseline on a grid) and a look-ahead and
// threshold; it retries until the point's cache key is new.
func (g *jobGen) spec() (eval.CompileSpec, error) {
	for {
		fam := fleetFamilies[g.rng.Intn(len(fleetFamilies))]
		n := 12 + g.rng.Intn(37)
		name := fleetCompilers[g.rng.Intn(len(fleetCompilers))]
		comp, err := core.LookupCompiler(name)
		if err != nil {
			return eval.CompileSpec{}, err
		}
		cfg := core.DefaultConfigFor(comp)
		cfg.LookAhead = 1 + g.rng.Intn(8)
		cfg.SwapThreshold = 4 + g.rng.Intn(6)
		s := eval.CompileSpec{App: fmt.Sprintf("%s_n%d", fam, n), Compiler: name, Config: &cfg}
		if name != "mussti" {
			var fit []int
			for i, gr := range fleetGrids {
				if 2*gr.rows*gr.cols*gr.capacity >= 3*n {
					fit = append(fit, i)
				}
			}
			s.Grid = g.grids[fit[g.rng.Intn(len(fit))]]
		}
		key, ok := s.CacheKey()
		if !ok {
			return eval.CompileSpec{}, fmt.Errorf("%s/%s has no cache key", s.App, s.Compiler)
		}
		h := fnv.New64a()
		h.Write([]byte(key))
		if k := h.Sum64(); !g.seen[k] {
			g.seen[k] = true
			g.drawn++
			return s, nil
		}
	}
}

func (g *jobGen) jobs(n int) ([]eval.Job, error) {
	js := make([]eval.Job, n)
	for i := range js {
		s, err := g.spec()
		if err != nil {
			return nil, err
		}
		js[i] = eval.Job{Spec: &s}
	}
	return js, nil
}

// serveWorker is the fleet worker process: the same entry and runner
// defaults as `cmd/experiments -worker`.
func serveWorker(ctx context.Context) int {
	if err := dist.ServeWorker(ctx, os.Stdin, os.Stdout, eval.NewRunner(1)); err != nil {
		fmt.Fprintln(os.Stderr, "musstibench: worker:", err)
		return 1
	}
	return 0
}

// fleet is a running coordinator; each sweep dispatches to it through a
// fresh runner, so memory does not grow with the jobs a run gets through.
type fleet struct {
	coord  *dist.Coordinator
	remote eval.RemoteExecutor
}

func (f *fleet) newRunner() *eval.Runner {
	r := eval.NewRunner(fleetWorkers)
	r.SetRemote(f.remote)
	return r
}

// tracedRemote wraps the coordinator so each dispatch is a span under the
// job span the context carries.
type tracedRemote struct {
	c  *dist.Coordinator
	tr *tracer
}

func (t tracedRemote) RunJob(ctx context.Context, j eval.Job) (eval.Measurement, error) {
	sp := t.tr.start(spanFrom(ctx), "dist.RunJob")
	defer sp.end()
	return t.c.RunJob(ctx, j)
}

func (t tracedRemote) Capacity() int { return t.c.Capacity() }

// startFleet spawns the fleet and waits until it answers a first job.
func startFleet(ctx context.Context, tr *tracer, first eval.Job) (*fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	coord, err := dist.NewCoordinator(fleetWorkers, []string{exe, "-worker"}, &dist.CoordinatorOptions{})
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord, remote: coord}
	if tr != nil {
		f.remote = tracedRemote{coord, tr}
	}
	if _, err := f.newRunner().RunJob(ctx, first); err != nil {
		coord.Close()
		return nil, fmt.Errorf("first job: %w", err)
	}
	return f, nil
}

// sweep runs jobs through runner from Capacity closed-loop clients and
// returns each job's answer and latency and the sweep's wall time.
func (f *fleet) sweep(ctx context.Context, runner *eval.Runner, jobs []eval.Job, tr *tracer, parent *active) ([]eval.Measurement, []error, []time.Duration, time.Duration) {
	got := make([]eval.Measurement, len(jobs))
	errs := make([]error, len(jobs))
	lat := make([]time.Duration, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < f.coord.Capacity(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				sp := tr.start(parent, "job")
				t0 := time.Now()
				got[i], errs[i] = runner.RunJob(withSpan(ctx, sp), jobs[i])
				lat[i] = time.Since(t0)
				sp.end()
			}
		}()
	}
	wg.Wait()
	return got, errs, lat, time.Since(start)
}

// sweepRecord is what a fleet session produced. Answers are kept as
// hashes only, so memory stays flat however many jobs a run gets through;
// the jobs themselves are drawn again from the seed for the check.
type sweepRecord struct {
	answers    []uint64
	errs       map[int]error
	lat        []float64 // ms
	walls      []float64 // s
	memoHits   int64
	memoMisses int64
}

// runSweeps runs sweeps of fresh jobs until at least n sweeps have run and
// dur has passed.
func (f *fleet) runSweeps(ctx context.Context, gen *jobGen, n int, dur time.Duration, tr *tracer, parent *active) (sweepRecord, error) {
	rec := sweepRecord{errs: map[int]error{}}
	start := time.Now()
	for len(rec.walls) < n || time.Since(start) < dur {
		jobs, err := gen.jobs(sweepJobs)
		if err != nil {
			return rec, err
		}
		runner := f.newRunner()
		sp := tr.start(parent, "sweep")
		got, errs, lat, wall := f.sweep(ctx, runner, jobs, tr, sp)
		sp.end()
		if err := ctx.Err(); err != nil {
			return rec, err
		}
		hits, misses := runner.CacheStats()
		rec.memoHits += hits
		rec.memoMisses += misses
		for i := range jobs {
			if errs[i] != nil {
				rec.errs[len(rec.answers)] = errs[i]
			}
			rec.answers = append(rec.answers, answerHash(got[i]))
			rec.lat = append(rec.lat, ms(lat[i]))
		}
		rec.walls = append(rec.walls, wall.Seconds())
	}
	return rec, nil
}

// answerHash digests a measurement's deterministic fields (all but the
// wall-clock CompileTime).
func answerHash(m eval.Measurement) uint64 {
	m.CompileTime = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", m)
	return h.Sum64()
}

// checkSweeps counts every job against the correctness gate: its answer
// must equal an in-process eval.RunSpec of the same spec. gen must be a
// fresh generator at the position the session's first sweep started
// from. It reports which jobs failed.
func checkSweeps(ctx context.Context, o *outcome, gen *jobGen, rec sweepRecord) ([]bool, error) {
	jobs, err := gen.jobs(len(rec.answers))
	if err != nil {
		return nil, err
	}
	want := make([]uint64, len(jobs))
	werr := make([]error, len(jobs))
	parallelFor(len(jobs), func(i int) {
		var m eval.Measurement
		m, werr[i] = eval.RunSpecContext(ctx, *jobs[i].Spec)
		want[i] = answerHash(m)
	})
	bad := make([]bool, len(jobs))
	for i, j := range jobs {
		o.attempted++
		switch {
		case rec.errs[i] != nil:
			o.fail("job %s/%s: %v", j.Spec.App, j.Spec.Compiler, rec.errs[i])
		case werr[i] != nil:
			o.fail("job %s/%s: in-process: %v", j.Spec.App, j.Spec.Compiler, werr[i])
		case rec.answers[i] != want[i]:
			o.fail("job %s/%s: the fleet's answer differs from the in-process compile", j.Spec.App, j.Spec.Compiler)
		default:
			continue
		}
		bad[i] = true
	}
	return bad, nil
}

// fleetSetup starts minSetups fleets, timing each until its first job is
// answered, and keeps the last.
func fleetSetup(ctx context.Context, gen *jobGen, tr *tracer) (*fleet, []float64, error) {
	var setups []float64
	for {
		first, err := gen.jobs(1)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		f, err := startFleet(ctx, tr, first[0])
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if len(setups) == minSetups {
			return f, setups, nil
		}
		f.coord.Close()
	}
}

func runFleetSweep(ctx context.Context, rc runConfig, tr *tracer) (*outcome, error) {
	gen, err := newJobGen(rc.seed)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		return tracedFleet(ctx, gen, tr)
	}
	f, setups, err := fleetSetup(ctx, gen, nil)
	if err != nil {
		return nil, err
	}
	replay := gen.clone()
	rec, err := f.runSweeps(ctx, gen, 1, rc.dur, nil, nil)
	f.coord.Close()
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	o := &outcome{}
	bad, err := checkSweeps(ctx, o, replay, rec)
	if err != nil {
		return nil, err
	}
	within := 0
	for i, l := range rec.lat {
		if !bad[i] && l <= ms(fleetLimit) {
			within++
		}
	}
	var rates []float64
	for _, w := range rec.walls {
		rates = append(rates, sweepJobs/w)
	}
	o.e2e = map[string]float64{
		"setup_s":         median(setups),
		"eval_wall_s":     median(rec.walls),
		"peak_rss_mb":     rss,
		"req_p50_ms":      quantile(rec.lat, 0.5),
		"req_p99_ms":      quantile(rec.lat, 0.99),
		"compiled_p50_ms": quantile(rec.lat, 0.5),
		"compiled_p90_ms": quantile(rec.lat, 0.9),
		"slo_ok_ratio":    float64(within) / float64(len(rec.lat)),
		"jobs_per_s":      median(rates),
	}
	return o, nil
}

// tracedFleet runs tracedSweeps sweeps untraced and as many traced, each
// on a fresh fleet, and reports the coordinator's and runners' counts of
// the traced ones.
func tracedFleet(ctx context.Context, gen *jobGen, tr *tracer) (*outcome, error) {
	first, err := gen.jobs(1)
	if err != nil {
		return nil, err
	}
	ref, err := startFleet(ctx, nil, first[0])
	if err != nil {
		return nil, err
	}
	refRec, err := ref.runSweeps(ctx, gen, tracedSweeps, 0, nil, nil)
	ref.coord.Close()
	if err != nil {
		return nil, err
	}
	f, err := startFleet(ctx, tr, first[0])
	if err != nil {
		return nil, err
	}
	replay := gen.clone()
	root := tr.start(nil, "workload.fleet-sweep")
	rec, err := f.runSweeps(ctx, gen, tracedSweeps, 0, tr, root)
	root.end()
	st := f.coord.Stats()
	f.coord.Close()
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	if _, err := checkSweeps(ctx, o, replay, rec); err != nil {
		return nil, err
	}
	o.headline = median(rec.walls) / median(refRec.walls)
	jobs := rec.memoHits + rec.memoMisses
	o.layer = map[string]float64{
		"dist.dispatched":     float64(st.Dispatched),
		"dist.batches":        float64(st.Batches),
		"dist.batched":        float64(st.Batched),
		"dist.retried":        float64(st.Retried),
		"dist.deaths":         float64(st.Deaths),
		"eval.jobs":           float64(jobs),
		"eval.memo_hits":      float64(rec.memoHits),
		"eval.memo_misses":    float64(rec.memoMisses),
		"eval.memo_hit_ratio": float64(rec.memoHits) / float64(max(jobs, 1)),
	}
	return o, nil
}
