package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
)

// stripTime returns a copy of res with the wall-clock CompileTime zeroed —
// the one Result field that legitimately differs between two identical
// compiles.
func stripTime(res *Result) Result {
	c := *res
	c.CompileTime = 0
	return c
}

// TestParallelCompileByteIdentical is the tentpole invariant: the same
// compile at Parallelism 1, 2 and 8 must produce deeply equal Results
// (metrics, stats, mappings, trace, report) and identical observer event
// sequences. The recorder is the package's own replayObserver, so the
// comparison covers every callback kind and argument.
func TestParallelCompileByteIdentical(t *testing.T) {
	for _, app := range []string{"QFT_n32", "GHZ_n64"} {
		c := bench.MustByName(app)
		d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
		var want Result
		var wantEvents []observerEvent
		for _, par := range []int{1, 2, 8} {
			rec := &replayObserver{}
			opts := DefaultOptions()
			opts.Trace = true
			opts.Observer = rec
			opts.Parallelism = par
			res, err := CompileContext(context.Background(), c, d, opts)
			if err != nil {
				t.Fatalf("%s parallelism=%d: %v", app, par, err)
			}
			if par == 1 {
				want = stripTime(res)
				wantEvents = rec.events
				continue
			}
			if got := stripTime(res); !reflect.DeepEqual(got, want) {
				t.Errorf("%s parallelism=%d: Result differs from sequential", app, par)
			}
			if !reflect.DeepEqual(rec.events, wantEvents) {
				t.Errorf("%s parallelism=%d: observer event sequence differs from sequential (%d vs %d events)",
					app, par, len(rec.events), len(wantEvents))
			}
		}
	}
}

// TestParallelTrivialMappingUnaffected: a single-candidate compile has no
// fan-out; Parallelism must be a no-op there, not an error.
func TestParallelTrivialMappingUnaffected(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	opts := DefaultOptions()
	opts.Mapping = MappingTrivial
	seq, err := CompileContext(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 8
	par, err := CompileContext(context.Background(), c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTime(seq), stripTime(par)) {
		t.Error("trivial-mapping Result changed under Parallelism=8")
	}
}

// TestCompileBatchMatchesIndividual: every batch member must be
// byte-identical to a standalone CompileContext of the same variant, at any
// worker bound, including traced and grid-targeted variants.
func TestCompileBatchMatchesIndividual(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	g, err := arch.NewGrid(2, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	variants := []BatchVariant{
		{Target: d, Config: nil}, // nil config = paper defaults
		{Target: d, Config: NewCompileConfig(WithLookAhead(4))},
		{Target: d, Config: NewCompileConfig(WithTrace())},
		{Target: d, Config: NewCompileConfig(WithMapping(MappingTrivial))},
		{Target: d, Config: NewCompileConfig(WithSwapInsertion(false))},
		{Target: g, Config: nil},
	}
	want := make([]Result, len(variants))
	for i, v := range variants {
		opts := DefaultOptions()
		if v.Config != nil {
			opts = *v.Config
		}
		dev, err := deviceFor(v.Target)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CompileContext(context.Background(), c, dev, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		want[i] = stripTime(res)
	}
	for _, workers := range []int{0, 1, 3} {
		results, err := CompileBatchBounded(context.Background(), c, variants, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(variants) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(results), len(variants))
		}
		for i, res := range results {
			if !reflect.DeepEqual(stripTime(res), want[i]) {
				t.Errorf("workers=%d variant %d: batch Result differs from standalone compile", workers, i)
			}
		}
	}
}

// TestCompileBatchValidation: bad variants fail fast with the lowest index
// named, before any scheduling work.
func TestCompileBatchValidation(t *testing.T) {
	c := bench.MustByName("SQRT_n299")
	// DefaultConfig(8) still allocates a full 4-module block (capacity 128),
	// so a 299-qubit circuit is what actually overflows it.
	small := arch.MustNew(arch.DefaultConfig(8))
	big := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	_, err := CompileBatch(context.Background(), c, []BatchVariant{
		{Target: big}, {Target: small}, {Target: small},
	})
	if err == nil || !strings.Contains(err.Error(), "batch variant 1") {
		t.Errorf("err = %v, want capacity failure naming variant 1", err)
	}
	if res, err := CompileBatch(context.Background(), c, nil); err != nil || res != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", res, err)
	}
}

// TestReversePrepConcurrent is the -race stress test for the prep-cache
// path: 8 goroutines compile the same circuit concurrently with mixed
// Parallelism settings, all drawing reverse preps from the shared pool.
// Every compile must match the sequential reference exactly.
func TestReversePrepConcurrent(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	ref, err := CompileContext(context.Background(), c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := stripTime(ref)
	pars := [3]int{1, 2, 8}
	var wg sync.WaitGroup
	errCh := make(chan error, 8*3)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				opts := DefaultOptions()
				opts.Parallelism = pars[(g+iter)%len(pars)]
				res, err := CompileContext(context.Background(), c, d, opts)
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(stripTime(res), want) {
					errCh <- fmt.Errorf("goroutine %d iter %d (parallelism %d): Result diverged", g, iter, opts.Parallelism)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// waitForGoroutines polls until the goroutine count retires to the baseline
// (with headroom for runtime helpers), failing after a deadline — the
// no-leak check for the parallel cancellation paths.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not retire: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestCompileContextMidCompileCancelParallel extends the mid-compile
// cancellation contract to the parallel candidate path: cancellation fires
// from the live observer (candidate 0's pass), and must stop every
// candidate goroutine within one scheduler step, leaking nothing.
func TestCompileContextMidCompileCancelParallel(t *testing.T) {
	c := bench.MustByName("SQRT_n117")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := DefaultOptions()
	opts.Parallelism = 8
	opts.Observer = &cancelAfterGates{n: 100, cancel: cancel}
	start := time.Now()
	_, err := CompileContext(ctx, c, d, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (compile was not interrupted)", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled parallel compile took %s, want a prompt return", elapsed)
	}
	waitForGoroutines(t, baseline)
}

// TestCompileBatchMidCompileCancel: cancelling mid-batch must abort every
// in-flight variant promptly and join all workers before returning.
func TestCompileBatchMidCompileCancel(t *testing.T) {
	c := bench.MustByName("SQRT_n117")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	variants := make([]BatchVariant, 4)
	for i := range variants {
		cfg := DefaultOptions()
		if i == 0 {
			cfg.Observer = &cancelAfterGates{n: 100, cancel: cancel}
		}
		variants[i] = BatchVariant{Target: d, Config: &cfg}
	}
	start := time.Now()
	_, err := CompileBatchBounded(ctx, c, variants, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (batch was not interrupted)", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled batch took %s, want a prompt return", elapsed)
	}
	waitForGoroutines(t, baseline)
}

// TestCompileBatchPreCancelled: an already-dead context aborts the batch
// before any variant completes.
func TestCompileBatchPreCancelled(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileBatch(ctx, c, []BatchVariant{{Target: d}, {Target: d}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelFanOutAllocationCeiling guards the candidate fan-out path
// against creeping steady-state allocations: a Parallelism=2 compile may
// spend only a small fixed overhead (prep clone, context, goroutine
// plumbing) over the sequential compile of the same circuit. A regression
// here fails CI without needing benchmark diffing.
func TestParallelFanOutAllocationCeiling(t *testing.T) {
	c := bench.MustByName("QFT_n32")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
	compileAt := func(par int) float64 {
		opts := DefaultOptions()
		opts.Parallelism = par
		return testing.AllocsPerRun(10, func() {
			if _, err := CompileContext(context.Background(), c, d, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	seq := compileAt(1)
	par := compileAt(2)
	const overhead = 80 // clone + cancel context + goroutine + join channel
	if par > seq+overhead {
		t.Errorf("parallel fan-out allocates %.0f/op vs %.0f/op sequential (budget +%d): new steady-state allocation in the candidate fan-out path", par, seq, overhead)
	}
}
