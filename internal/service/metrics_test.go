package service

import (
	"errors"
	"math"
	"testing"
	"time"

	"mussti/internal/eval"
)

// settledMetrics returns a collector whose service has been up for a full
// rate window, so compiles_per_sec divides by exactly 60 seconds.
func settledMetrics() *metrics {
	return &metrics{firstSeen: time.Now().Add(-2 * time.Minute)}
}

// TestCompileRateCountsOnlyCompiles: cache hits and failures are not
// compiles, so they must not move compiles_per_sec.
func TestCompileRateCountsOnlyCompiles(t *testing.T) {
	m := settledMetrics()
	for i := 0; i < 30; i++ {
		m.observe(eval.JobOutcome{Cached: true, Wall: time.Millisecond})
	}
	m.observe(eval.JobOutcome{Err: errors.New("boom")})
	for i := 0; i < 6; i++ {
		m.observe(eval.JobOutcome{Wall: time.Millisecond})
	}
	snap := m.snapshot()
	if want := 6.0 / 60; math.Abs(snap.CompilesPerSec-want) > 1e-9 {
		t.Errorf("compiles_per_sec = %v, want %v (6 compiles in a 60 s window)", snap.CompilesPerSec, want)
	}
	if snap.Compiles != 6 || snap.CacheServed != 30 || snap.Failures != 1 {
		t.Errorf("counters = %d/%d/%d, want 6/30/1", snap.Compiles, snap.CacheServed, snap.Failures)
	}
}

// TestCompileRateNotCappedBySampleRing: the rate counts every compile in
// the window, not just the ones the latency ring still holds — 2000
// compiles in a minute are 33/s, not 512/60.
func TestCompileRateNotCappedBySampleRing(t *testing.T) {
	m := settledMetrics()
	const n = 2000
	for i := 0; i < n; i++ {
		m.observe(eval.JobOutcome{Wall: time.Millisecond})
	}
	snap := m.snapshot()
	if want := float64(n) / 60; math.Abs(snap.CompilesPerSec-want) > 1e-9 {
		t.Errorf("compiles_per_sec = %v, want %v (%d compiles in a 60 s window)", snap.CompilesPerSec, want, n)
	}
	if snap.P50MS != 1 || snap.P99MS != 1 {
		t.Errorf("latency quantiles = %v/%v ms, want 1/1", snap.P50MS, snap.P99MS)
	}
}
