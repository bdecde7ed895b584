package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
	"mussti/internal/dag"
	"mussti/internal/dist"
	"mussti/internal/eval"
	"mussti/internal/sim"
)

// The traced run: a fixed probe of every layer, timed from outside around
// calls into its public functions, then the workload itself with spans at
// its item and layer boundaries. Workload-level counts (runner memo,
// fleet dispatch, service, load generator) come from the workload when it
// drives that layer, and otherwise from the probe's own short traced
// fleet-sweep and serve-mixed sessions; README.md lists each metric's
// source.

// traceDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "out")

// miniServe is how long the probe's service session runs when the
// workload has no service of its own.
const miniServe = 2 * time.Second

func tracedRun(ctx context.Context, w workload, rc runConfig, st stamp) (result, error) {
	tr := newTracer()
	o, err := runProbes(ctx, rc.seed, w.name, tr)
	if err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wo, err := w.run(ctx, rc, tr)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	runtime.ReadMemStats(&m1)
	for k, v := range wo.layer {
		o.layer[k] = v
	}
	o.attempted += wo.attempted
	o.failed += wo.failed
	o.problems = append(o.problems, wo.problems...)
	o.layer["proc.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	o.layer["proc.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	o.layer["trace.overhead_ratio"] = wo.headline

	spans := tr.snapshot()
	if err := checkTree(spans); err != nil {
		return result{}, fmt.Errorf("malformed span tree: %w", err)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, rc.seed))
	if err := writeTrace(path, st, spans); err != nil {
		return result{}, err
	}
	printSummary(os.Stderr, st, spans)
	fmt.Fprintln(os.Stderr, "musstibench: spans written to", path)
	return resultOf(o, o.layer, perLayer)
}

// runProbes measures every layer on fixed inputs derived from the seed.
func runProbes(ctx context.Context, seed uint64, wname string, tr *tracer) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	points, apps, err := suitePoints()
	if err != nil {
		return nil, err
	}
	probeCircuits(o, apps, seed, tr)
	probeWalkAhead(o, tr)
	if err := probeCompiles(ctx, o, points, tr); err != nil {
		return nil, err
	}
	if err := probeExperiments(ctx, o, tr); err != nil {
		return nil, err
	}
	if err := probeJobHit(ctx, o, tr); err != nil {
		return nil, err
	}
	if err := probeDist(ctx, o, seed, tr); err != nil {
		return nil, err
	}
	if wname != "fleet-sweep" {
		gen, err := newJobGen(seed + 2)
		if err != nil {
			return nil, err
		}
		fo, err := tracedFleet(ctx, gen, tr)
		if err != nil {
			return nil, err
		}
		o.attempted += fo.attempted
		o.failed += fo.failed
		o.problems = append(o.problems, fo.problems...)
		for k, v := range fo.layer {
			if strings.HasPrefix(k, "dist.") {
				o.layer[k] = v
			}
		}
	}
	if wname != "serve-mixed" {
		so, err := serveLayers(ctx, serveSchedule(seed, miniServe), tr)
		if err != nil {
			return nil, err
		}
		o.attempted += so.attempted
		o.failed += so.failed
		o.problems = append(o.problems, so.problems...)
		for k, v := range so.layer {
			if strings.HasPrefix(k, "service.") || strings.HasPrefix(k, "loadgen.") {
				o.layer[k] = v
			}
		}
	}
	return o, nil
}

// suitePoints lists the evaluation's distinct measurement points, in plan
// order, and the apps they name.
func suitePoints() ([]eval.CompileSpec, []string, error) {
	var points []eval.CompileSpec
	seen, apps := map[string]bool{}, map[string]bool{}
	for _, id := range experimentIDs {
		e, err := eval.ByID(id)
		if err != nil {
			return nil, nil, err
		}
		p, err := e.Plan()
		if err != nil {
			return nil, nil, err
		}
		for _, j := range p.Jobs {
			s, err := j.Resolve()
			if err != nil {
				return nil, nil, err
			}
			apps[s.App] = true
			if key, ok := s.CacheKey(); ok && !seen[key] {
				seen[key] = true
				points = append(points, s)
			}
		}
	}
	return points, sortedKeys(apps), nil
}

// generators are the benchmark families, called directly so generation is
// timed without the process-wide circuit cache.
var generators = map[string]func(int) *circuit.Circuit{
	"adder": bench.Adder, "bv": bench.BV, "ghz": bench.GHZ, "qaoa": bench.QAOA,
	"qft": bench.QFT, "sqrt": bench.SQRT, "ran": bench.RAN, "sc": bench.SC,
}

func generate(app string) (*circuit.Circuit, error) {
	fam, n, ok := strings.Cut(app, "_n")
	q, err := strconv.Atoi(n)
	gen := generators[strings.ToLower(fam)]
	if !ok || err != nil || gen == nil {
		return nil, fmt.Errorf("unknown app %q", app)
	}
	return gen(q), nil
}

// probeCircuits times circuit generation and DAG construction over the
// suite's apps, and QASM parsing and lowering over seeded circuits like
// serve-mixed's.
func probeCircuits(o *outcome, apps []string, seed uint64, tr *tracer) {
	root := tr.start(nil, "probe.circuits")
	defer root.end()
	var gen, build float64
	for _, app := range apps {
		gen += ms(tr.timed(root, "circuit.gen", func() { generate(app) }))
		c := bench.MustByName(app)
		build += ms(tr.timed(root, "dag.build", func() { dag.Build(c) }))
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	sizes := newStratified(rng, qasmMinQubits, qasmMaxQubits)
	var parse, lower []float64
	for i := 0; i < 200; i++ {
		src := randomQASM(rng, sizes.next())
		var c *circuit.Circuit
		parse = append(parse, us(tr.timed(root, "circuit.parse", func() {
			c, _ = circuit.ParseQASM("probe", strings.NewReader(src))
		})))
		lower = append(lower, us(tr.timed(root, "circuit.lower", func() {
			circuit.OptimizeOneQubit(circuit.LowerToNative(c))
		})))
	}
	o.layer["circuit.gen_ms"] = gen
	o.layer["dag.build_ms"] = build
	o.layer["circuit.parse_us_p50"] = median(parse)
	o.layer["circuit.lower_us_p50"] = median(lower)
}

// probeWalkAhead times the k=8 look-ahead window on SQRT_n299 with half of
// its gates executed.
func probeWalkAhead(o *outcome, tr *tracer) {
	root := tr.start(nil, "probe.dag")
	defer root.end()
	g := dag.Build(bench.MustByName("SQRT_n299"))
	for half := g.Remaining() / 2; g.Remaining() > half; {
		g.Execute(g.Frontier()[0])
	}
	visited := 0
	var walks []float64
	for i := 0; i < 500; i++ {
		walks = append(walks, us(tr.timed(root, "dag.walkahead", func() {
			g.WalkAhead(8, func(int, *dag.Node) { visited++ })
		})))
	}
	o.layer["dag.walkahead8_us"] = median(walks)
}

// targetOf resolves a spec's machine the way eval does.
func targetOf(s eval.CompileSpec, numQubits int) (arch.Target, []sim.ZoneInfo, error) {
	if s.Grid != nil {
		return s.Grid, sim.ZonesOfGrid(s.Grid), nil
	}
	cfg := s.Arch
	if cfg == (arch.Config{}) {
		cfg = arch.DefaultConfig(numQubits)
	}
	d, err := arch.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return d, sim.ZonesOfDevice(d), nil
}

// pointProbe is one distinct point's probe record.
type pointProbe struct {
	compiler                     string
	compile, trivial, noswap, vf time.Duration
	stats                        core.SchedStats
	verifyErr                    error
	// misread: verifyErr is the verifier's known misreading of an
	// inserted SWAP (see swapThenGateMisread), not a schedule fault.
	misread bool
}

// probeCompiles compiles every distinct point of the suite. MUSS-TI points
// compile as configured, with trivial mapping, without SWAP insertion, and
// traced, and the traced schedule is replayed by sim.VerifySchedule. A
// rejection fails the correctness gate unless it is the verifier's known
// misreading of a SWAP followed by a gate on the same pair; such schedules
// are counted in sim.verify_misread and named on standard error. Baseline
// points compile once; they return no initial mapping, so their schedules
// cannot be verified and are counted as unverified.
func probeCompiles(ctx context.Context, o *outcome, points []eval.CompileSpec, tr *tracer) error {
	root := tr.start(nil, "probe.compile")
	defer root.end()
	recs := make([]pointProbe, len(points))
	errs := make([]error, len(points))
	parallelFor(len(points), func(i int) {
		recs[i], errs[i] = probePoint(ctx, points[i], tr, root)
	})
	var compile, trivial, noswap []float64
	byBaseline := map[string][]float64{}
	var verify time.Duration
	verified, unverified, misread := 0, 0, 0
	for i, r := range recs {
		if errs[i] != nil {
			return fmt.Errorf("%s/%s: %w", points[i].App, points[i].Compiler, errs[i])
		}
		if r.compiler != "mussti" {
			byBaseline[r.compiler] = append(byBaseline[r.compiler], ms(r.compile))
			unverified++
			continue
		}
		compile = append(compile, ms(r.compile))
		trivial = append(trivial, ms(r.trivial))
		noswap = append(noswap, ms(r.noswap))
		verify += r.vf
		o.attempted++
		switch {
		case r.misread:
			misread++
			fmt.Fprintf(os.Stderr, "musstibench: %s left unverified: sim.VerifySchedule misreads its SWAP before a gate on the same pair (%v)\n", points[i].App, r.verifyErr)
		case r.verifyErr != nil:
			o.fail("verify %s: %v", points[i].App, r.verifyErr)
		default:
			verified++
		}
		o.layer["core.swaps_considered"] += float64(r.stats.SwapsConsidered)
		o.layer["core.swaps_inserted"] += float64(r.stats.SwapsInserted)
		o.layer["core.evictions"] += float64(r.stats.Evictions)
		o.layer["core.routed"] += float64(r.stats.Routed)
	}
	if unverified > 0 {
		fmt.Fprintf(os.Stderr, "musstibench: %d baseline points compiled but not verified (baselines return no initial mapping)\n", unverified)
	}
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	o.layer["core.points"] = float64(len(compile))
	o.layer["core.compile_ms"] = mean(compile)
	o.layer["core.compile_ms_max"] = slices.Max(compile)
	o.layer["core.trivial_pass_ms"] = mean(trivial)
	o.layer["core.noswap_ms"] = mean(noswap)
	o.layer["core.mapping_share"] = 1 - sum(trivial)/sum(compile)
	o.layer["core.swapinsert_share"] = 1 - sum(noswap)/sum(compile)
	o.layer["sim.verify_ms"] = ms(verify)
	o.layer["sim.verified"] = float64(verified)
	o.layer["sim.verify_failures"] = float64(len(compile) - verified - misread)
	o.layer["sim.verify_misread"] = float64(misread)
	o.layer["sim.unverified"] = float64(unverified)
	for _, b := range []string{"murali", "dai", "mqt"} {
		o.layer["baseline."+b+"_ms"] = mean(byBaseline[b])
	}
	return nil
}

func probePoint(ctx context.Context, s eval.CompileSpec, tr *tracer, root *active) (pointProbe, error) {
	r := pointProbe{compiler: s.Compiler}
	c, err := bench.ByName(s.App)
	if err != nil {
		return r, err
	}
	comp, err := core.LookupCompiler(s.Compiler)
	if err != nil {
		return r, err
	}
	target, zones, err := targetOf(s, c.NumQubits)
	if err != nil {
		return r, err
	}
	cfg := core.DefaultConfigFor(comp)
	if s.Config != nil {
		cfg = *s.Config
	}
	pt := tr.start(root, "point")
	defer pt.end()
	var res *core.Result
	compile := func(name string, cfg core.CompileConfig) time.Duration {
		return tr.timed(pt, name, func() { res, err = comp.Compile(ctx, c, target, &cfg) })
	}
	if s.Compiler != "mussti" {
		r.compile = compile("baseline."+s.Compiler, cfg)
		return r, err
	}
	if r.compile = compile("core.compile", cfg); err != nil {
		return r, err
	}
	r.stats = res.Stats
	triv, noswap, traced := cfg, cfg, cfg
	triv.Mapping, noswap.SwapInsertion, traced.Trace = core.MappingTrivial, false, true
	if r.trivial = compile("core.trivial_pass", triv); err != nil {
		return r, err
	}
	if r.noswap = compile("core.noswap", noswap); err != nil {
		return r, err
	}
	if compile("core.traced_compile", traced); err != nil {
		return r, err
	}
	r.vf = tr.timed(pt, "sim.verify", func() {
		r.verifyErr = sim.VerifySchedule(c, zones, res.InitialMapping, res.Trace)
	})
	r.misread = r.verifyErr != nil && swapThenGateMisread(res.Trace, r.verifyErr)
	return r, nil
}

// rejectedFiber is sim.VerifySchedule's rejection of a fiber gate whose
// qubits it places in the op's two zones the other way round.
var rejectedFiber = regexp.MustCompile(`^verify: op (\d+) fiber zones (\d+)/(\d+) but qubits at (\d+)/(\d+)$`)

// swapThenGateMisread reports whether err is sim.VerifySchedule misreading
// a valid schedule. The scheduler may insert a SWAP (three fiber MS gates)
// on a pair whose next program gate is on the same pair, then run that
// gate with the exchanged bindings. The verifier takes the SWAP's first MS
// as the program gate, so it still holds the old bindings when the real
// gate comes and rejects it. Only that exact shape qualifies: the rejected
// op is a fiber gate on a pair, the last three ops touching either qubit
// before it are fiber MS gates on the same pair and zones, and the gate
// places each qubit where the SWAP put it. Any other rejection is a fault.
func swapThenGateMisread(trace []sim.Op, err error) bool {
	m := rejectedFiber.FindStringSubmatch(err.Error())
	if m == nil || m[2] != m[5] || m[3] != m[4] {
		return false
	}
	k, _ := strconv.Atoi(m[1])
	if k >= len(trace) || trace[k].Kind != "fiber" || len(trace[k].Qubits) != 2 {
		return false
	}
	gate := trace[k]
	a, b := gate.Qubits[0], gate.Qubits[1]
	swapMS := 0
	for i := k - 1; i >= 0 && swapMS < 3; i-- {
		op := trace[i]
		if !slices.Contains(op.Qubits, a) && !slices.Contains(op.Qubits, b) {
			continue
		}
		if op.Kind != "fiber" || len(op.Qubits) != 2 ||
			zoneOf(op, a) != zoneOf(gate, b) || zoneOf(op, b) != zoneOf(gate, a) {
			return false
		}
		swapMS++
	}
	return swapMS == 3
}

// zoneOf is the zone a two-qubit fiber op places qubit q in, or -1.
func zoneOf(op sim.Op, q int) int {
	switch q {
	case op.Qubits[0]:
		return op.Zone
	case op.Qubits[1]:
		return op.ZoneB
	}
	return -1
}

// probeExperiments runs each experiment alone on a fresh runner; its
// tables must match the committed digest.
func probeExperiments(ctx context.Context, o *outcome, tr *tracer) error {
	want, err := committedDigests()
	if err != nil {
		return err
	}
	root := tr.start(nil, "probe.experiments")
	defer root.end()
	for _, id := range experimentIDs {
		e, err := eval.ByID(id)
		if err != nil {
			return err
		}
		var out string
		d := tr.timed(root, "eval.exp."+id, func() { out, _, err = e.CollectContext(ctx, eval.NewRunner(runtime.NumCPU())) })
		o.layer["eval.exp_s."+id] = d.Seconds()
		o.attempted++
		switch {
		case err != nil:
			o.fail("%s alone: %v", id, err)
		case tableDigest(id, out) != want[id]:
			o.fail("%s alone: rendered tables differ from the committed digest", id)
		}
	}
	return nil
}

// probeJobHit times Runner.RunJob on a key the memo already holds.
func probeJobHit(ctx context.Context, o *outcome, tr *tracer) error {
	root := tr.start(nil, "probe.eval")
	defer root.end()
	r := eval.NewRunner(1)
	j := eval.Job{Spec: &eval.CompileSpec{App: "QFT_n32", Compiler: "mussti"}}
	if _, err := r.RunJob(ctx, j); err != nil {
		return err
	}
	hits := make([]float64, 2000)
	var err error
	tr.timed(root, "eval.job_hits", func() {
		for i := range hits {
			t0 := time.Now()
			_, err = r.RunJob(ctx, j)
			hits[i] = us(time.Since(t0))
		}
	})
	o.layer["eval.job_hit_us_p50"] = median(hits)
	return err
}

// distProbeJobs is how many fleet-style jobs the dist probe sends one at a
// time.
const distProbeJobs = 200

// probeDist sends jobs one at a time through a fleet of fleetWorkers and
// runs each in process too: the round trip, the local compile and their
// difference (transport). Every answer must equal the local result.
func probeDist(ctx context.Context, o *outcome, seed uint64, tr *tracer) error {
	root := tr.start(nil, "probe.dist")
	defer root.end()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	coord, err := dist.NewCoordinator(fleetWorkers, []string{exe, "-worker"}, &dist.CoordinatorOptions{})
	if err != nil {
		return err
	}
	defer coord.Close()
	gen, err := newJobGen(seed + 1)
	if err != nil {
		return err
	}
	jobs, err := gen.jobs(distProbeJobs)
	if err != nil {
		return err
	}
	var rts, locals, transport []float64
	for _, j := range jobs {
		var local, remote eval.Measurement
		var lerr, rerr error
		pt := tr.start(root, "point")
		dl := tr.timed(pt, "dist.local", func() { local, lerr = eval.RunSpecContext(ctx, *j.Spec) })
		dr := tr.timed(pt, "dist.roundtrip", func() { remote, rerr = coord.RunJob(ctx, j) })
		pt.end()
		rts, locals, transport = append(rts, us(dr)), append(locals, us(dl)), append(transport, us(dr-dl))
		o.attempted++
		local.CompileTime, remote.CompileTime = 0, 0
		switch {
		case lerr != nil || rerr != nil:
			o.fail("dist probe %s/%s: local %v, remote %v", j.Spec.App, j.Spec.Compiler, lerr, rerr)
		case local != remote:
			o.fail("dist probe %s/%s: fleet %+v, in-process %+v", j.Spec.App, j.Spec.Compiler, remote, local)
		}
	}
	o.layer["dist.roundtrip_us_p50"] = median(rts)
	o.layer["dist.local_us_p50"] = median(locals)
	o.layer["dist.transport_us_p50"] = median(transport)
	return nil
}
