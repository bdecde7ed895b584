package core

import (
	"context"
	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
)

// TestReversePrepCacheReuse: an acquire for a circuit must hand back the
// pooled prep, and a compile running on a recycled prep must produce the
// same schedule as the first — reuse is invisible in the output.
//
// sync.Pool may drop any Put (the race detector drops one in four on
// purpose, and a goroutine moved to another P misses its private slot), so
// the reuse half retries: it requires the pooled prep back within
// reuseAttempts Put/acquire rounds, which every build meets unless the pool
// is never reused at all.
func TestReversePrepCacheReuse(t *testing.T) {
	const reuseAttempts = 32
	c := bench.MustByName("QAOA_n64")
	d := arch.MustNew(arch.DefaultConfig(c.NumQubits))

	p, pool := acquireReversePrep(c)
	reused := false
	for i := 0; i < reuseAttempts && !reused; i++ {
		pool.Put(p)
		next, again := acquireReversePrep(c)
		if again != pool {
			t.Fatalf("acquire returned a different pool for the same circuit")
		}
		reused = next == p
		p = next
	}
	pool.Put(p)
	if !reused {
		t.Errorf("%d acquires after a Put all built a fresh prep; want the pooled one back", reuseAttempts)
	}

	first, err := CompileContext(context.Background(), c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	second, err := CompileContext(context.Background(), c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if first.Metrics != second.Metrics {
		t.Errorf("metrics changed across cached-prep compiles: %+v vs %+v", first.Metrics, second.Metrics)
	}
	if len(first.InitialMapping) != len(second.InitialMapping) {
		t.Fatalf("initial mapping length changed: %d vs %d", len(first.InitialMapping), len(second.InitialMapping))
	}
	for q := range first.InitialMapping {
		if first.InitialMapping[q] != second.InitialMapping[q] {
			t.Fatalf("initial mapping for qubit %d changed: %d vs %d", q, first.InitialMapping[q], second.InitialMapping[q])
		}
	}
}
