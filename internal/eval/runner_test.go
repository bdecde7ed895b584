package eval

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestParallelMatchesSequential is the determinism contract of the runner:
// the rendered tables must be byte-identical to the sequential output at
// any worker count. table2 covers the mixed baseline+MUSS-TI path, lru the
// extension path.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment runs skipped in -short")
	}
	for _, id := range []string{"table2", "lru"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := e.RunContext(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		par, err := e.RunContext(context.Background(), NewRunner(4))
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if seq != par {
			t.Errorf("%s: parallel output differs from sequential\n--- sequential ---\n%s--- parallel ---\n%s", id, seq, par)
		}
	}
}

// ghzJobs builds n small independent measurement jobs.
func ghzJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Spec: &CompileSpec{App: "GHZ_n32", Compiler: "mussti"}}
	}
	return jobs
}

func TestRunnerPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, r := range map[string]*Runner{"sequential": nil, "parallel": NewRunner(2)} {
		if _, err := r.Run(ctx, ghzJobs(4)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestRunnerCancelledMidRun(t *testing.T) {
	// Cancellation must land while the pool is still working; the runner
	// must abort in-flight compiles and skip unstarted jobs instead of
	// draining the whole list. Each job is a SQRT_n299 compile (~300ms —
	// two orders of magnitude above the 5ms cancel delay, so the cancel
	// always arrives mid-compile however fast the hardware; GHZ-sized jobs
	// here became so cheap that a whole list could finish first).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(2)
	// The jobs are identical; with the cache on they collapse into one
	// compile.
	r.DisableCache()
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{Spec: &CompileSpec{App: "SQRT_n299", Compiler: "mussti"}}
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Draining all four compiles would take >600ms on two workers; a
	// prompt abort stops the in-flight ones within one scheduler step.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled run took %s, want a prompt return", elapsed)
	}
}

func TestRunnerFirstErrorInJobOrder(t *testing.T) {
	// Two failing jobs: the runner must report the lowest-indexed one —
	// the same error a sequential loop surfaces first — at any worker
	// count, because workers claim jobs in index order and a claimed job
	// always runs to completion.
	jobs := []Job{
		{Spec: &CompileSpec{App: "GHZ_n32", Compiler: "mussti"}},
		{Spec: &CompileSpec{App: "Bogus_n1", Compiler: "mussti"}},
		{Spec: &CompileSpec{App: "AlsoBogus_n1", Compiler: "mussti"}},
	}
	_, seqErr := (*Runner)(nil).Run(context.Background(), jobs)
	if seqErr == nil || !strings.Contains(seqErr.Error(), `"bogus"`) {
		t.Fatalf("sequential error = %v", seqErr)
	}
	for _, workers := range []int{1, 3} {
		for i := 0; i < 5; i++ { // worker scheduling varies; try a few times
			_, err := NewRunner(workers).Run(context.Background(), jobs)
			if err == nil || err.Error() != seqErr.Error() {
				t.Fatalf("workers=%d error = %v, want %v", workers, err, seqErr)
			}
		}
	}
}

func TestRunnerEmptyJob(t *testing.T) {
	if _, err := NewRunner(1).Run(context.Background(), []Job{{}}); err == nil {
		t.Error("empty job accepted")
	}
}

func TestRunnerWorkersDefault(t *testing.T) {
	if w := NewRunner(0).Workers(); w < 1 {
		t.Errorf("Workers() = %d", w)
	}
	if w := (*Runner)(nil).Workers(); w != 1 {
		t.Errorf("nil runner Workers() = %d, want 1", w)
	}
}

func TestTimingExperimentsAreSerial(t *testing.T) {
	// fig10/fig11 render wall-clock CompileTime; their jobs must never
	// contend with each other in the pool. Everything else parallelises.
	for _, e := range AllExperiments() {
		p, err := e.Plan()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		wantSerial := e.ID == "fig10" || e.ID == "fig11"
		if p.Serial != wantSerial {
			t.Errorf("%s: Serial = %v, want %v", e.ID, p.Serial, wantSerial)
		}
	}
}

func TestResultsCursorOverrun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overrunning the results cursor did not panic")
		}
	}()
	(&Results{}).Next()
}

// TestExperimentsByteIdenticalAcrossExecutionModes is the harness-level
// determinism golden: the rendered table2 and fig6 output must be
// byte-identical whether jobs run sequentially, through the concurrent
// runner, or with the measurement cache off. The execution strategy is a
// pure performance knob.
func TestExperimentsByteIdenticalAcrossExecutionModes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-mode experiment sweep")
	}
	ctx := context.Background()
	modes := []struct {
		name string
		mk   func() *Runner
	}{
		{"sequential", func() *Runner { return nil }},
		{"concurrent", func() *Runner { return NewRunner(8) }},
		{"uncached", func() *Runner { r := NewRunner(4); r.DisableCache(); return r }},
	}
	for _, id := range []string{"table2", "fig6"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for _, mode := range modes {
			got, err := e.RunContext(ctx, mode.mk())
			if err != nil {
				t.Fatalf("%s (%s): %v", id, mode.name, err)
			}
			if mode.name == "sequential" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s (%s): output differs from sequential run", id, mode.name)
			}
		}
	}
}

// TestBatchRunnerCancelLeavesNoGoroutines extends the no-leak cancellation
// contract to a large same-circuit sweep: a run of 64 identical uncached
// jobs cancelled from inside the first compile must return promptly and
// retire every worker and candidate goroutine.
func TestBatchRunnerCancelLeavesNoGoroutines(t *testing.T) {
	jobs := make([]Job, 0, 64)
	for i := 0; i < 64; i++ {
		jobs = append(jobs, Job{Spec: &CompileSpec{App: "GHZ_n64", Compiler: "mussti"}})
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(4)
	r.DisableCache() // identical jobs would otherwise collapse and finish early
	// Cancel from inside the first compile that schedules a gate, while
	// its pool neighbours are compiling too.
	jobs[0] = jobs[0].WithObserver(cancelOnGate{cancel: cancel, after: 1})
	start := time.Now()
	_, err := r.Run(ctx, jobs)
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled sweep took %s, want a prompt return", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines did not retire after sweep cancel: %d running, baseline %d", n, baseline)
	}
}
