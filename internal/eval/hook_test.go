package eval

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mussti/internal/core"
)

// TestRunnerJobHook: the per-job hook must see one outcome per RunJob call —
// the first a compile (Cached=false), the repeat a cache hit — with the
// job's cache key attached and a non-negative wall-clock latency.
func TestRunnerJobHook(t *testing.T) {
	r := NewRunner(2)
	var mu sync.Mutex
	var outcomes []JobOutcome
	r.SetJobHook(func(o JobOutcome) {
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
	})
	job := Job{Spec: &CompileSpec{App: "GHZ_n32", Compiler: "mussti"}}
	for i := 0; i < 2; i++ {
		if _, err := r.RunJob(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	if len(outcomes) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(outcomes))
	}
	wantKey, ok := job.cacheKey()
	if !ok {
		t.Fatal("job unexpectedly uncacheable")
	}
	for i, o := range outcomes {
		if o.Key != wantKey {
			t.Errorf("outcome %d key = %q, want %q", i, o.Key, wantKey)
		}
		if o.Err != nil {
			t.Errorf("outcome %d err = %v", i, o.Err)
		}
		if o.Wall < 0 {
			t.Errorf("outcome %d wall = %v", i, o.Wall)
		}
	}
	if outcomes[0].Cached || !outcomes[1].Cached {
		t.Errorf("cached flags = %v/%v, want false/true", outcomes[0].Cached, outcomes[1].Cached)
	}
}

// TestRunKeyedCoalesces: RunKeyed calls sharing a key compute once per
// process — concurrent callers coalesce through the memo singleflight, later
// callers replay from memory — and errors surface per call.
func TestRunKeyedCoalesces(t *testing.T) {
	r := NewRunner(4)
	var calls int
	var mu sync.Mutex
	want := Measurement{App: "adhoc", Shuttles: 3}
	fn := func(ctx context.Context) (Measurement, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return want, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := r.RunKeyed(context.Background(), "adhoc-key", fn)
			if err != nil || m != want {
				t.Errorf("RunKeyed: m=%+v err=%v", m, err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("fn ran %d times across 8 keyed calls, want 1", calls)
	}
	// An empty key bypasses the cache entirely.
	if _, err := r.RunKeyed(context.Background(), "", fn); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("empty-key call should have recomputed: %d calls, want 2", calls)
	}
}

// TestRunKeyedDiskPersistence: a keyed result computed by one runner must be
// served from a shared disk cache by a second runner (a fresh process in the
// service-restart scenario) without recomputing.
func TestRunKeyedDiskPersistence(t *testing.T) {
	dc, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := NewRunner(1)
	first.SetDiskCache(dc)
	want := Measurement{App: "adhoc", Shuttles: 9}
	if _, err := first.RunKeyed(context.Background(), "persist-key", func(ctx context.Context) (Measurement, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}

	second := NewRunner(1)
	second.SetDiskCache(dc)
	m, err := second.RunKeyed(context.Background(), "persist-key", func(ctx context.Context) (Measurement, error) {
		return Measurement{}, fmt.Errorf("must not recompute")
	})
	if err != nil || m != want {
		t.Fatalf("disk-served RunKeyed: m=%+v err=%v", m, err)
	}
	if hits, _ := dc.Stats(); hits != 1 {
		t.Errorf("disk hits = %d, want 1", hits)
	}
}

// TestRunJobHookFiresPerJob: a Run over an N-job same-circuit sweep reports
// every job to the hook exactly once — each a compile, each under its own
// cache key.
func TestRunJobHookFiresPerJob(t *testing.T) {
	r := NewRunner(4)
	var mu sync.Mutex
	seen := map[string]int{}
	r.SetJobHook(func(o JobOutcome) {
		mu.Lock()
		defer mu.Unlock()
		if o.Err != nil || o.Cached {
			t.Errorf("outcome %q: cached=%v err=%v, want a clean compile", o.Key, o.Cached, o.Err)
		}
		seen[o.Key]++
	})
	const n = 6
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := core.NewCompileConfig(core.WithLookAhead(i + 1))
		jobs[i] = Job{Spec: &CompileSpec{App: "GHZ_n32", Compiler: "mussti", Config: cfg}}
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, c := range seen {
		calls += c
	}
	if calls != n || len(seen) != n {
		t.Fatalf("hook fired %d times over %d keys, want %d over %d", calls, len(seen), n, n)
	}
	for _, j := range jobs {
		if key, _ := j.cacheKey(); seen[key] != 1 {
			t.Errorf("job %q reported %d times, want 1", key, seen[key])
		}
	}
}
