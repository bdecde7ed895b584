package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit"
)

// BatchVariant is one (target, config) pair of a CompileBatch. A nil Config
// means the paper's headline configuration (DefaultOptions), matching the
// Compiler interface's nil-config contract.
type BatchVariant struct {
	Target arch.Target
	Config *CompileConfig
}

// BatchCompiler is optionally implemented by compilers that can compile many
// (target, config) variants of one circuit while sharing the per-circuit
// preparation, so harnesses sweeping configurations over a fixed circuit
// (eval's Runner, the service endpoints to come) amortise the O(g) prep and
// get intra-batch concurrency without knowing how. workers ≤ 0 means "pick
// a sensible bound" (GOMAXPROCS). results[i] must correspond to variants[i]
// and be byte-identical to a standalone Compile of that variant.
type BatchCompiler interface {
	Compiler
	CompileBatch(ctx context.Context, c *circuit.Circuit, variants []BatchVariant, workers int) ([]*Result, error)
}

// CompileBatch compiles one circuit against many (target, config) variants,
// building the per-circuit preparation — dependency DAG, per-qubit gate
// lists, next-use tables — once and sharing it across all of them (each
// concurrent worker schedules over a cheap Clone, not a rebuild). Variants
// run on a worker group bounded by GOMAXPROCS; use CompileBatchBounded to
// set the bound explicitly.
//
// results[i] corresponds to variants[i] and is byte-identical to what
// CompileContext(context.Background(), c, variants[i]...) returns (modulo the wall-clock CompileTime),
// regardless of worker count or completion order. On failure the error
// reported is the lowest-indexed variant that failed before cancellation
// propagated; remaining variants are abandoned.
func CompileBatch(ctx context.Context, c *circuit.Circuit, variants []BatchVariant) ([]*Result, error) {
	return CompileBatchBounded(ctx, c, variants, 0)
}

// CompileBatchBounded is CompileBatch with an explicit worker bound
// (workers ≤ 0 means GOMAXPROCS). Callers that already run inside a worker
// pool — eval's Runner — pass the slots they actually own, so batching
// never oversubscribes the process.
func CompileBatchBounded(ctx context.Context, c *circuit.Circuit, variants []BatchVariant, workers int) ([]*Result, error) {
	if len(variants) == 0 {
		return nil, nil
	}
	// Resolve every target and config up front: validation errors surface
	// deterministically on the lowest-indexed bad variant, before any
	// scheduling work starts.
	devs := make([]*arch.Device, len(variants))
	cfgs := make([]CompileConfig, len(variants))
	for i, v := range variants {
		d, err := deviceFor(v.Target)
		if err != nil {
			return nil, fmt.Errorf("core: batch variant %d: %w", i, err)
		}
		opts := DefaultOptions()
		if v.Config != nil {
			opts = *v.Config
		}
		if c.NumQubits > d.Capacity() {
			return nil, fmt.Errorf("core: batch variant %d: circuit %q needs %d qubits, device holds %d",
				i, c.Name, c.NumQubits, d.Capacity())
		}
		devs[i], cfgs[i] = d, opts.withDefaults()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(variants) {
		workers = len(variants)
	}

	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	b := &batchRun{
		ctx:      ictx,
		cancel:   cancel,
		variants: variants,
		devs:     devs,
		cfgs:     cfgs,
		results:  make([]*Result, len(variants)),
		errs:     make([]error, len(variants)),
	}
	shared := newPrep(c)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Worker 0 schedules over the shared prep itself; every other worker
		// gets a clone. A worker owns its prep exclusively and passes reuse
		// it serially, so variants processed by one worker replay it via
		// Graph.Reset exactly like back-to-back Compile calls.
		p := shared
		if w > 0 {
			p = shared.clone()
		}
		wg.Add(1)
		go func(p *prep) {
			defer wg.Done()
			b.worker(p)
		}(p)
	}
	wg.Wait()
	results, errs := b.results, b.errs

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The outer ctx is live, so any context.Canceled here is internal
	// cancellation fallout from a sibling's real error — skip past it.
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) {
			return nil, e
		}
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return results, nil
}

// batchRun is the shared state of one CompileBatchBounded call: the
// resolved variant table, the claim counter, and the per-variant result and
// error slots. It exists so the worker claim loop is a named method the
// static-analysis suite can see — an anonymous closure is invisible to
// hotalloc and the perf budget.
type batchRun struct {
	ctx      context.Context
	cancel   context.CancelFunc
	variants []BatchVariant
	devs     []*arch.Device
	cfgs     []CompileConfig
	results  []*Result
	errs     []error
	next     atomic.Int64
}

// worker claims variants off the shared counter and schedules each over p
// until the batch drains, a sibling fails, or the context dies. Each worker
// owns its prep exclusively, so successive variants replay it via
// Graph.Reset exactly like back-to-back Compile calls.
//
//mussti:hotpath
func (b *batchRun) worker(p *prep) {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(b.variants) || b.ctx.Err() != nil {
			return
		}
		start := time.Now() //mussti:allow=determinism CompileTime is reporting metadata, never schedule input
		res, err := compileWithPrep(b.ctx, p, b.devs[i], b.cfgs[i])
		if err != nil {
			b.errs[i] = err
			b.cancel()
			return
		}
		// Per-variant scheduling time; the shared prep build is amortised
		// across the batch and not attributed to anyone.
		res.CompileTime = time.Since(start) //mussti:allow=determinism CompileTime is reporting metadata, never schedule input
		b.results[i] = res
	}
}

// deviceFor resolves a Target to the EML-QCCD device MUSS-TI schedules on:
// a *Device directly, or a *Grid through the zone/module adapter.
func deviceFor(t arch.Target) (*arch.Device, error) {
	switch tt := t.(type) {
	case *arch.Device:
		return tt, nil
	case *arch.Grid:
		return tt.Device(), nil
	}
	return nil, fmt.Errorf("core: mussti cannot target %T (want *arch.Device or *arch.Grid)", t)
}

// CompileBatch implements BatchCompiler for the registry's "mussti" entry.
func (musstiCompiler) CompileBatch(ctx context.Context, c *circuit.Circuit, variants []BatchVariant, workers int) ([]*Result, error) {
	return CompileBatchBounded(ctx, c, variants, workers)
}
