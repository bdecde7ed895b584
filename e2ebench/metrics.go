package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDecl declares one reported metric. The same lists are written out
// in BENCHMARK.json; a test keeps the two in step.
type metricDecl struct {
	name   string
	unit   string
	better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload (README.md defines each per workload).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"eval_wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"req_p50_ms", "ms", "lower"},
	{"compiled_p50_ms", "ms", "lower"},
	{"slo_ok_ratio", "ratio", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"ok_ratio", "ratio", "higher"},
}

// tails are latency tails every untraced run measures but prints only on
// standard error: on a small shared host they spread too far from run to
// run to carry a regression bound (README.md, "Steadiness").
var tails = []metricDecl{
	{"req_p99_ms", "ms", "lower"},
	{"compiled_p90_ms", "ms", "lower"},
}

// experimentIDs are the paper evaluation's experiments, in paper order.
var experimentIDs = []string{
	"table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "lru", "ports", "routing",
}

// perLayer are the metrics of single layers, reported by every traced run.
var perLayer = func() []metricDecl {
	ds := []metricDecl{
		{"circuit.gen_ms", "ms", "lower"},
		{"circuit.parse_us_p50", "us", "lower"},
		{"circuit.lower_us_p50", "us", "lower"},
		{"dag.build_ms", "ms", "lower"},
		{"dag.walkahead8_us", "us", "lower"},
		{"core.points", "count", "higher"},
		{"core.compile_ms", "ms", "lower"},
		{"core.compile_ms_max", "ms", "lower"},
		{"core.trivial_pass_ms", "ms", "lower"},
		{"core.noswap_ms", "ms", "lower"},
		{"core.mapping_share", "ratio", "lower"},
		{"core.swapinsert_share", "ratio", "lower"},
		{"core.swaps_considered", "count", "lower"},
		{"core.swaps_inserted", "count", "lower"},
		{"core.evictions", "count", "lower"},
		{"core.routed", "count", "lower"},
		{"baseline.murali_ms", "ms", "lower"},
		{"baseline.dai_ms", "ms", "lower"},
		{"baseline.mqt_ms", "ms", "lower"},
		{"sim.verify_ms", "ms", "lower"},
		{"sim.verified", "count", "higher"},
		{"sim.verify_failures", "count", "lower"},
		{"sim.verify_misread", "count", "lower"},
		{"sim.unverified", "count", "lower"},
	}
	for _, id := range experimentIDs {
		ds = append(ds, metricDecl{"eval.exp_s." + id, "s", "lower"})
	}
	return append(ds, []metricDecl{
		{"eval.jobs", "count", "higher"},
		{"eval.memo_hits", "count", "higher"},
		{"eval.memo_misses", "count", "lower"},
		{"eval.memo_hit_ratio", "ratio", "higher"},
		{"eval.job_hit_us_p50", "us", "lower"},
		{"dist.dispatched", "count", "higher"},
		{"dist.batches", "count", "higher"},
		{"dist.batched", "count", "higher"},
		{"dist.retried", "count", "lower"},
		{"dist.deaths", "count", "lower"},
		{"dist.roundtrip_us_p50", "us", "lower"},
		{"dist.local_us_p50", "us", "lower"},
		{"dist.transport_us_p50", "us", "lower"},
		{"service.handler_ms_p50", "ms", "lower"},
		{"service.hot_p50_ms", "ms", "lower"},
		{"service.hot_p99_ms", "ms", "lower"},
		{"service.stream_p50_ms", "ms", "lower"},
		{"service.compiles", "count", "lower"},
		{"service.cache_served", "count", "higher"},
		{"service.rejected", "count", "lower"},
		{"service.failures", "count", "lower"},
		{"service.queued_max", "count", "lower"},
		{"loadgen.sent", "count", "higher"},
		{"loadgen.late_ms_p99", "ms", "lower"},
		{"proc.alloc_mb", "MB", "lower"},
		{"proc.gc_pause_ms", "ms", "lower"},
		{"trace.overhead_ratio", "ratio", "lower"},
	}...)
}()

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// processCPU is the user and system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
