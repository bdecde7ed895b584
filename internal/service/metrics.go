//mussti:allow=determinism service telemetry is wall-clock by design and never feeds results

package service

import (
	"math"
	"sort"
	"sync"
	"time"

	"mussti/internal/eval"
)

// metrics aggregates the service's operational counters. Job outcomes feed
// it through Runner.SetJobHook (so fleet-dispatched and locally compiled
// jobs report identically), admission feeds the request counters, and
// /metrics renders a Snapshot.
type metrics struct {
	mu sync.Mutex
	// Counters; all guarded by mu (the hook already serialises nothing, and
	// a single small critical section beats five atomics plus a locked ring).
	requests  int64 // compile requests admitted past decode+resolve
	rejected  int64 // 429s: queue full
	failures  int64 // compiles that returned an error (cancellations included)
	compiles  int64 // outcomes that actually compiled (memo misses)
	cached    int64 // outcomes served by memo or disk without compiling
	firstSeen time.Time

	// ring holds the most recent successful job latencies for the
	// quantiles; 512 samples bound both memory and sort cost.
	ring [512]time.Duration
	n    int // total samples ever; ring index is n % len(ring)

	// perSec counts compiled outcomes per wall-clock second over the
	// trailing rateWindowSec, one slot per second: slot sec%len holds second
	// sec's count, stale once sec falls out of the window.
	perSec [rateWindowSec]secCount
}

// secCount is one second's compile count in the rate window.
type secCount struct {
	sec int64 // Unix second the count belongs to
	n   int64
}

// observe ingests one job outcome from the runner hook.
func (m *metrics) observe(o eval.JobOutcome) {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case o.Err != nil:
		m.failures++
		return
	case o.Cached:
		m.cached++
	default:
		m.compiles++
		sec := now.Unix()
		slot := &m.perSec[sec%rateWindowSec]
		if slot.sec != sec {
			*slot = secCount{sec: sec}
		}
		slot.n++
	}
	m.ring[m.n%len(m.ring)] = o.Wall
	m.n++
}

func (m *metrics) admitted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	if m.firstSeen.IsZero() {
		m.firstSeen = time.Now()
	}
}

func (m *metrics) reject() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// rateWindowSec is the trailing window, in seconds, the compile rate is
// computed over.
const rateWindowSec = 60

// MetricsSnapshot is the GET /metrics response body.
type MetricsSnapshot struct {
	// Requests counts compile requests admitted; Rejected counts 429s.
	Requests int64 `json:"requests"`
	Rejected int64 `json:"rejected"`
	// Compiles counts jobs that actually compiled; CacheServed counts jobs
	// answered by the memo or disk cache; Failures counts errored jobs.
	Compiles    int64 `json:"compiles"`
	CacheServed int64 `json:"cache_served"`
	Failures    int64 `json:"failures"`
	// CompilesPerSec is the rate of jobs that actually compiled (cache
	// hits and failures excluded) over the trailing 60s window.
	CompilesPerSec float64 `json:"compiles_per_sec"`
	// InFlight and Queued are instantaneous admission gauges.
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
	// P50/P99 are job-latency quantiles over the last 512 successful jobs,
	// in milliseconds (0 before any job completes).
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// Memo and Disk report the runner's cache layers; Disk is all-zero when
	// no disk cache is attached.
	Memo CacheStats `json:"memo"`
	Disk CacheStats `json:"disk"`
	// Fleet is present when the service compiles through a dist worker
	// fleet.
	Fleet *FleetStats `json:"fleet,omitempty"`
}

// CacheStats is one cache layer's hit/miss counters.
type CacheStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

func cacheStatsOf(hits, misses int64) CacheStats {
	s := CacheStats{Hits: hits, Misses: misses}
	if total := hits + misses; total > 0 {
		s.HitRate = float64(hits) / float64(total)
	}
	return s
}

// FleetStats mirrors dist.CoordinatorStats plus the fleet shape.
type FleetStats struct {
	Workers    int    `json:"workers"`
	Capacity   int    `json:"capacity"`
	Dispatched uint64 `json:"dispatched"`
	Batched    uint64 `json:"batched"`
	Batches    uint64 `json:"batches"`
	Retried    uint64 `json:"retried"`
	Deaths     uint64 `json:"deaths"`
}

// snapshot renders the current counters. inFlight/queued are read from the
// server's admission gauges by the caller.
func (m *metrics) snapshot() MetricsSnapshot {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MetricsSnapshot{
		Requests:    m.requests,
		Rejected:    m.rejected,
		Compiles:    m.compiles,
		CacheServed: m.cached,
		Failures:    m.failures,
	}
	var recent int64
	for _, c := range m.perSec {
		if age := now.Unix() - c.sec; age >= 0 && age < rateWindowSec {
			recent += c.n
		}
	}
	// A young service has no full window behind it; clamp the divisor to
	// the observed span so early rates are not diluted by an empty past.
	window := rateWindowSec * time.Second
	if alive := now.Sub(m.firstSeen); !m.firstSeen.IsZero() && alive < window && alive > 0 {
		window = alive
	}
	snap.CompilesPerSec = float64(recent) / window.Seconds()
	k := min(m.n, len(m.ring))
	if k == 0 {
		return snap
	}
	walls := append([]time.Duration(nil), m.ring[:k]...)
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	snap.P50MS = float64(quantile(walls, 0.50)) / float64(time.Millisecond)
	snap.P99MS = float64(quantile(walls, 0.99)) / float64(time.Millisecond)
	return snap
}

// quantile reads the q-th quantile from a sorted sample set (nearest-rank,
// rounding the rank up — with two samples the p99 is the larger one, not the
// smaller).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
