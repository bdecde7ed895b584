package eval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
)

// This file is the cross-experiment measurement cache. Every experiment is
// a bag of deterministic (application, compiler, device config, options)
// points, and several experiments sweep overlapping points: table2 and the
// fig6 small scale share their whole grid-2x2 columns, fig7/fig12 revisit
// default-capacity cells, and the -all CLI mode runs all of them in one
// process. A Memo keys each point by its full configuration and runs it
// exactly once, singleflight-style: concurrent requests for an in-flight
// key wait for the leader instead of compiling again.
//
// Caching is safe because measurements are deterministic functions of
// their spec — the only nondeterministic field, CompileTime, is never
// rendered by a cached experiment (the wall-clock experiments fig10/fig11
// are Serial and bypass the runner, hence the cache).

// Memo is a concurrency-safe, singleflight measurement cache shared by all
// experiments running in one process. The zero value is not usable; call
// NewMemo.
type Memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	// disk, when set, backs the in-memory entries with a store shared
	// across processes: leaders consult it before computing and persist
	// what they compute. See SetDisk.
	disk *DiskCache

	hits   atomic.Int64
	misses atomic.Int64
}

// memoEntry is one cached (or in-flight) measurement. done closes when the
// leader finishes; retry marks a leader that was cancelled mid-compile, so
// waiters re-claim the key instead of caching a context error.
type memoEntry struct {
	done  chan struct{}
	m     Measurement
	err   error
	retry bool
}

// NewMemo returns an empty measurement cache.
func NewMemo() *Memo {
	return &Memo{entries: make(map[string]*memoEntry)}
}

// Stats reports how many measurements were served from cache (hits —
// including waiters coalesced onto an in-flight compile) and how many were
// actually compiled (misses).
func (mo *Memo) Stats() (hits, misses int64) {
	return mo.hits.Load(), mo.misses.Load()
}

// SetDisk attaches a shared on-disk store behind the in-memory cache: a
// leader claiming a key reads the store before computing, and persists the
// measurement after a successful compute. The singleflight layer stays in
// front, so within one process each key touches the disk at most once per
// outcome; across processes the store's atomic writes keep entries intact.
// Call it before the memo sees traffic. Real errors are cached in memory
// only — an error is this process's outcome, not a fleet-wide fact.
func (mo *Memo) SetDisk(d *DiskCache) { mo.disk = d }

// Do returns the measurement for key, computing it with fn at most once per
// key across all concurrent callers. Real errors (bad app names, compiler
// invariant failures) are cached like results; context cancellation is not:
// a cancelled leader's entry is discarded so a later caller with a live
// context retries, and waiters whose own ctx dies stop waiting.
func (mo *Memo) Do(ctx context.Context, key string, fn func() (Measurement, error)) (Measurement, error) {
	for {
		mo.mu.Lock()
		if e, ok := mo.entries[key]; ok {
			mo.mu.Unlock()
			select {
			case <-ctx.Done():
				return Measurement{}, ctx.Err()
			case <-e.done:
			}
			if e.retry {
				continue // leader was cancelled; re-claim the key
			}
			mo.hits.Add(1)
			return e.m, e.err
		}
		e := &memoEntry{done: make(chan struct{})}
		mo.entries[key] = e
		mo.mu.Unlock()

		if mo.disk != nil {
			if m, ok := mo.disk.Get(key); ok {
				// Served from the shared store without compiling; the disk
				// cache's own counters record it (memo hits/misses count
				// in-process coalescing and compilations respectively).
				e.m = m
				close(e.done)
				return m, nil
			}
		}
		m, err := fn()
		if err != nil && errors.Is(err, ctx.Err()) {
			// Cancelled mid-compile: the measurement never happened, so
			// leave nothing behind but this leader's context error.
			mo.mu.Lock()
			delete(mo.entries, key)
			mo.mu.Unlock()
			e.retry = true
			close(e.done)
			return Measurement{}, err
		}
		mo.misses.Add(1)
		e.m, e.err = m, err
		close(e.done)
		if err == nil && mo.disk != nil {
			// Best-effort persistence: a full disk or unwritable directory
			// degrades the store to pass-through, never fails the run.
			_ = mo.disk.Put(key, m)
		}
		return m, err
	}
}

// cacheKey renders a Job's full configuration as a deterministic string
// key, or ok=false when the job must not be cached (trace-recording runs,
// jobs without a spec); see CompileSpec.CacheKey.
func (j Job) cacheKey() (key string, ok bool) {
	s, err := j.Resolve()
	if err != nil {
		return "", false
	}
	return s.CacheKey()
}

// CacheKey is `compiler|app|target|config`, each part rendered
// deterministically (see arch.Target.CacheKey and CompileConfig.CacheKey),
// so keys are stable across processes — the property the shared on-disk
// cache and the distributed wire codec (internal/dist) both build on: a
// job envelope round-trips losslessly exactly when the decoded spec
// reproduces this key. ok=false marks specs that must not be cached
// (trace-recording runs, unknown compilers). The Observer is excluded by
// CompileConfig.CacheKey: observation never changes a measurement.
func (s CompileSpec) CacheKey() (key string, ok bool) {
	comp, err := core.LookupCompiler(s.Compiler)
	if err != nil {
		return "", false
	}
	cfg := s.config(comp)
	if cfg.Trace {
		return "", false
	}
	target := ""
	if s.Grid != nil {
		target = s.Grid.CacheKey()
	} else {
		// A zero Arch resolves to arch.DefaultConfig(qubits), and the qubit
		// count is a function of App — so keying the literal Arch config is
		// sound. An Arch explicitly spelled as that same default normalises
		// to the zero form first, so e.g. fig7's capacity-16 point and a
		// zero-Arch default point of the same app share one cache entry
		// (they are the identical measurement).
		a := s.Arch
		if a != (arch.Config{}) {
			if c, err := bench.ByName(s.App); err == nil && a == arch.DefaultConfig(c.NumQubits) {
				a = arch.Config{}
			}
		}
		target = a.CacheKey()
	}
	return fmt.Sprintf("%s|%s|%s|%s", s.Compiler, s.App, target, cfg.CacheKey()), true
}
