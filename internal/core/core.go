// Package core implements the MUSS-TI compiler (§3 of the paper): the
// multi-level shuttle scheduler for EML-QCCD devices.
//
// The scheduling loop mirrors multi-level memory management. Qubits are
// tasks; the storage zone is external storage (level 0), the operation zone
// main memory (level 1), the optical zone the CPU (level 2). A two-qubit
// gate needs its ions delivered to the right zone on time; misplaced
// partners are routed in, and when a target zone is full the least recently
// used resident is evicted one level down — the trap-world analogue of a
// page fault.
//
// Compile is the entry point; CompileContext adds cooperative cancellation
// (checked at every scheduler step) and per-step progress observation via
// the Observer interface, so long compiles can be interrupted and watched
// without forking the run loop.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/sim"
)

// SchedStats counts the scheduler's decisions over one run — how often
// each mechanism of §3.2 fired. They explain *why* a schedule cost what it
// did and feed the ablation analyses.
type SchedStats struct {
	// ExecutableFast counts frontier gates executed with no routing
	// (the "prioritize executable gates" fast path).
	ExecutableFast int
	// Routed counts gates that needed qubit routing.
	Routed int
	// Evictions counts conflict-handling evictions (page faults).
	Evictions int
	// SwapsConsidered and SwapsInserted count §3.3 decisions.
	SwapsConsidered int
	SwapsInserted   int
}

// Result is the outcome of one compilation run.
type Result struct {
	// Metrics are the executed schedule's simulation metrics.
	Metrics sim.Metrics
	// Stats counts the scheduler's decisions.
	Stats SchedStats
	// CompileTime is the wall-clock scheduling cost (the paper's Fig. 10
	// metric), excluding circuit generation.
	CompileTime time.Duration
	// InitialMapping and FinalMapping give each qubit's zone before and
	// after execution.
	InitialMapping []int
	FinalMapping   []int
	// Trace is the op-level schedule when CompileConfig.Trace was set.
	Trace []sim.Op
	// Report is the per-zone activity report when CompileConfig.Trace was set.
	Report *sim.Report
}

// CompileContext schedules circuit c onto device d with the given
// configuration and returns the executed schedule's metrics. It errors when
// the device cannot hold the circuit or an internal invariant breaks. The
// scheduling loops (including the SABRE probe passes) check ctx at every
// frontier step, so a cancelled or expired context aborts a long compile
// within one scheduler step and surfaces ctx.Err().
//
// With CompileConfig.Parallelism ≥ 2 and SABRE mapping, the two candidate
// production runs execute concurrently over cloned prep state and the
// reduction compares results in candidate-index order with the same strict
// better-than rule as the sequential loop, so the returned Result (and
// every tie-break) is byte-identical to Parallelism=1. Observer callbacks
// keep their sequential order too: the first candidate streams live from
// the calling goroutine's pass, later candidates record into a buffer
// replayed after the join — so an observer that cancels ctx mid-pass (the
// progress UI) still stops the whole compile within one scheduler step.
func CompileContext(ctx context.Context, c *circuit.Circuit, d *arch.Device, opts CompileConfig) (*Result, error) {
	opts = opts.withDefaults()
	if c.NumQubits > d.Capacity() {
		return nil, fmt.Errorf("core: circuit %q needs %d qubits, device holds %d",
			c.Name, c.NumQubits, d.Capacity())
	}
	start := time.Now() //mussti:allow=determinism CompileTime is reporting metadata, never schedule input

	// One prep serves every pass over c in this compile — the SABRE forward
	// probe and each candidate production run — via Graph.Reset; only the
	// reversed probe circuit needs its own build.
	p := newPrep(c)
	var best *Result
	if opts.Parallelism > 1 && opts.Mapping == MappingSABRE {
		var err error
		if best, err = compileParallel(ctx, p, d, opts); err != nil {
			return nil, err
		}
	} else {
		candidates, err := candidateMappings(ctx, p, d, opts)
		if err != nil {
			return nil, err
		}
		for _, initial := range candidates {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res, err := runCandidate(ctx, p, d, opts, initial)
			if err != nil {
				return nil, err
			}
			best = betterResult(best, res)
		}
	}
	best.CompileTime = time.Since(start) //mussti:allow=determinism CompileTime is reporting metadata, never schedule input
	return best, nil
}

// runCandidate executes one production pass from the given initial mapping
// and packages the Result (one iteration of the former candidate loop).
func runCandidate(ctx context.Context, p *prep, d *arch.Device, opts CompileConfig, initial []int) (*Result, error) {
	s, err := newSchedulerWith(ctx, p, d, opts, initial)
	if err != nil {
		return nil, err
	}
	if opts.Trace {
		s.eng.EnableTrace()
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	res := &Result{
		Metrics:        s.eng.Metrics(),
		Stats:          s.stats,
		InitialMapping: initial,
		FinalMapping:   s.mappingSnapshot(),
		Trace:          s.eng.Trace(),
	}
	if opts.Trace {
		rep := s.eng.BuildReport()
		res.Report = &rep
	}
	return res, nil
}

// betterResult is the deterministic reduction shared by the sequential and
// parallel candidate paths: candidates are offered in index order, and a
// later candidate wins only by strictly higher fidelity — so every
// tie-break matches the sequential loop bit for bit.
func betterResult(best, res *Result) *Result {
	if best == nil || res.Metrics.Fidelity.Log() > best.Metrics.Fidelity.Log() {
		return res
	}
	return best
}

// compileParallel runs the two SABRE candidates concurrently: the calling
// goroutine works through the long chain — forward probe, reverse probe,
// SABRE-candidate production, all reusing the caller's prep — while one
// goroutine runs the trivial candidate's production pass over a cloned
// prep. The probe chain is inherently serial (each pass starts from the
// previous pass's final mapping), so two workers already expose all the
// structural parallelism a SABRE compile has; Parallelism > 2 adds nothing
// here.
//
// Errors reduce in the same order the sequential path would surface them:
// outer-context cancellation first, then the mapping search, then
// candidates by index. A real error cancels the sibling pass; the sibling's
// resulting context.Canceled is internal noise and is never returned while
// the outer ctx is still live.
func compileParallel(ctx context.Context, p *prep, d *arch.Device, opts CompileConfig) (*Result, error) {
	triv, err := trivialMapping(p.c.NumQubits, d)
	if err != nil {
		return nil, err
	}
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Candidate 1 (trivial mapping) buffers its observer events; candidate 0
	// (SABRE) streams live, leading the event order exactly as in the
	// sequential loop.
	trivOpts := opts
	var buf *replayObserver
	if opts.Observer != nil {
		buf = &replayObserver{}
		trivOpts.Observer = buf
	}

	var results [2]*Result
	var errs [2]error
	pc := p.clone()
	done := make(chan struct{})
	go func() {
		defer close(done)
		results[1], errs[1] = runCandidate(ictx, pc, d, trivOpts, triv)
		if errs[1] != nil {
			cancel()
		}
	}()

	sab, mapErr := sabreMapping(ictx, p, d, opts)
	if mapErr != nil {
		cancel()
	} else {
		results[0], errs[0] = runCandidate(ictx, p, d, opts, sab)
		if errs[0] != nil {
			cancel()
		}
	}
	<-done

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The outer ctx is live, so any surviving context.Canceled came from the
	// sibling-cancel above; the real cause is the first non-Canceled error.
	for _, e := range [3]error{mapErr, errs[0], errs[1]} {
		if e != nil && !errors.Is(e, context.Canceled) {
			return nil, e
		}
	}
	for _, e := range [3]error{mapErr, errs[0], errs[1]} {
		if e != nil {
			return nil, e
		}
	}
	if buf != nil {
		buf.replay(opts.Observer)
	}
	return betterResult(results[0], results[1]), nil
}

// candidateMappings returns the initial mappings the compiler will try.
// SABRE evaluates both the two-fold-search mapping and the trivial one and
// Compile keeps whichever schedule reaches the higher fidelity: the search
// is a heuristic, and falling back costs only compile time (which the
// Fig. 11 trade-off accounts for).
func candidateMappings(ctx context.Context, p *prep, d *arch.Device, opts CompileConfig) ([][]int, error) {
	switch opts.Mapping {
	case MappingTrivial:
		m, err := trivialMapping(p.c.NumQubits, d)
		if err != nil {
			return nil, err
		}
		return [][]int{m}, nil
	case MappingSABRE:
		triv, err := trivialMapping(p.c.NumQubits, d)
		if err != nil {
			return nil, err
		}
		sab, err := sabreMapping(ctx, p, d, opts)
		if err != nil {
			return nil, err
		}
		return [][]int{sab, triv}, nil
	default:
		return nil, fmt.Errorf("core: unknown mapping strategy %d", opts.Mapping)
	}
}
