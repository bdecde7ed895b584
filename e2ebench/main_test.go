package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mussti/internal/eval"
	"mussti/internal/sim"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload spawns it as a fleet worker or a paper-eval pass process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "-worker":
			os.Exit(serveWorker(context.Background()))
		case "-pass":
			if len(os.Args) == 5 && os.Args[3] == "-order" {
				os.Exit(paperPassMain(context.Background(), os.Args[2], os.Args[4]))
			}
		}
	}
	os.Exit(m.Run())
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares workload %q, the program has %v", w.Name, workloadNames())
		}
	}
	check := func(what string, got []struct{ Name, Unit, Better string }, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, program %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestSmokeWorkloads runs a tiny size of each workload untraced: every
// operation must pass the correctness gate and every end-to-end metric
// must be measured.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and serves HTTP")
	}
	ctx := context.Background()
	t.Run("paper-eval pass", func(t *testing.T) {
		want, err := committedDigests()
		if err != nil {
			t.Fatal(err)
		}
		order := []string{"lru", "table2", "fig10"}
		pp, err := runPaperPass(ctx, order, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range order {
			if pp.Errors[id] != "" || pp.Digests[id] != want[id] {
				t.Errorf("%s: error %q, digest %s, committed %s", id, pp.Errors[id], pp.Digests[id], want[id])
			}
		}
		if pp.SetupS <= 0 || pp.WallS <= 0 || pp.RSSMB <= 0 || len(pp.CompileMS) == 0 {
			t.Errorf("pass report incomplete: %+v", pp)
		}
	})
	for _, name := range []string{"serve-mixed", "fleet-sweep"} {
		t.Run(name, func(t *testing.T) {
			res, err := untracedRun(ctx, workloads[name], runConfig{seed: 7, dur: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				if m := res.Metrics[d.name]; m.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", d.name, m.Value)
				}
			}
		})
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "workload", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "request", Start: 10, End: 40},
		{ID: 3, Parent: 1, Trace: 1, Name: "request", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 2, Trace: 1, Name: "service.ServeHTTP", Start: 15, End: 25},
	}
	if err := checkTree(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 20, 3: 30, 4: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	rows, base := summarize(spans)
	wantRows := []layerRow{
		{layer: "request", count: 2, total: 60, self: 50},
		{layer: "workload", count: 1, total: 100, self: 50},
		{layer: "service", count: 1, total: 10, self: 10},
	}
	if base != 100 || !reflect.DeepEqual(rows, wantRows) {
		t.Errorf("summary %+v over base %v, want %+v over 100ns", rows, base, wantRows)
	}
	for _, bad := range [][]span{
		{{ID: 1, Trace: 1, Start: 5, End: 4}},
		{{ID: 1, Trace: 1}, {ID: 2, Parent: 9, Trace: 1}},
		{{ID: 1, Trace: 1}, {ID: 2, Parent: 1, Trace: 2}},
		{{ID: 1, Trace: 1}, {ID: 1, Trace: 1}},
	} {
		if checkTree(bad) == nil {
			t.Errorf("checkTree accepted %+v", bad)
		}
	}
}

// TestTracedSpanTreeWellFormed records a real traced session — service
// requests and fleet jobs — and checks the tree, the self times and the
// written file.
func TestTracedSpanTreeWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and serves HTTP")
	}
	ctx := context.Background()
	tr := newTracer()
	if _, err := serveLayers(ctx, serveSchedule(3, 500*time.Millisecond), tr); err != nil {
		t.Fatal(err)
	}
	gen, err := newJobGen(3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := gen.jobs(1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := startFleet(ctx, tr, first[0])
	if err != nil {
		t.Fatal(err)
	}
	root := tr.start(nil, "workload.fleet-sweep")
	jobs, err := gen.jobs(50)
	if err != nil {
		t.Fatal(err)
	}
	f.sweep(ctx, f.newRunner(), jobs, tr, root)
	root.end()
	f.coord.Close()

	spans := tr.snapshot()
	if err := checkTree(spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			t.Errorf("span %d has negative self time %v", id, d)
		}
	}
	for _, s := range spans {
		names[s.Name]++
	}
	for _, n := range []string{"workload.serve-mixed", "request", "service.ServeHTTP", "workload.fleet-sweep", "job", "dist.RunJob"} {
		if names[n] == 0 {
			t.Errorf("no %s span recorded (have %v)", n, names)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	st := stampOf("serve-mixed", 3, true)
	if err := writeTrace(path, st, spans); err != nil {
		t.Fatal(err)
	}
	gotSt, got, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotSt != st || !reflect.DeepEqual(got, spans) {
		t.Error("trace file does not round-trip")
	}
	var sb strings.Builder
	printSummary(&sb, gotSt, got)
	if !strings.Contains(sb.String(), "service") || !strings.Contains(sb.String(), "dist") {
		t.Errorf("summary lacks layers:\n%s", sb.String())
	}
}

// TestExactCountsRepeat runs the counting paths twice with one seed: the
// scheduler's work counts, the runner's memo counts, the fleet's dispatch
// count and the service's compile count must be identical.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and serves HTTP")
	}
	ctx := context.Background()
	points, _, err := suitePoints()
	if err != nil {
		t.Fatal(err)
	}
	var sample []eval.CompileSpec
	for _, p := range points {
		if p.App == "SQRT_n30" || p.App == "QFT_n32" || strings.HasPrefix(p.App, "BV_") && len(sample) < 12 {
			sample = append(sample, p)
		}
	}
	counts := func() map[string]float64 {
		o := &outcome{layer: map[string]float64{}}
		if err := probeCompiles(ctx, o, sample, newTracer()); err != nil {
			t.Fatal(err)
		}
		pp, err := runPaperPass(ctx, []string{"table2", "fig6", "lru"}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A quarter of the workload's rate: the counts repeat only while
		// the service refuses nothing, also under the race detector's
		// slowdown.
		sched := serveSchedule(5, time.Second)
		for i := range sched {
			sched[i].due *= 4
		}
		so, err := serveLayers(ctx, sched, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		gen, err := newJobGen(5)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := tracedFleet(ctx, gen, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		c := map[string]float64{"eval.memo_hits": float64(pp.MemoHits), "eval.memo_misses": float64(pp.MemoMisses)}
		for _, k := range []string{"core.swaps_considered", "core.swaps_inserted", "core.evictions", "core.routed", "sim.verify_failures", "sim.verify_misread"} {
			c[k] = o.layer[k]
		}
		for _, k := range []string{"service.compiles", "service.cache_served", "eval.jobs", "loadgen.sent"} {
			c["serve "+k] = so.layer[k]
		}
		for _, k := range []string{"dist.dispatched", "eval.memo_misses"} {
			c["fleet "+k] = fo.layer[k]
		}
		return c
	}
	first, second := counts(), counts()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("counts differ across two runs with one seed:\n%v\n%v", first, second)
	}
	if first["core.swaps_considered"] == 0 || first["serve service.compiles"] == 0 || first["fleet dist.dispatched"] == 0 {
		t.Errorf("counts measured nothing: %v", first)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	bodies := func(seed uint64) []string {
		var out []string
		for _, r := range serveSchedule(seed, 2*time.Second) {
			out = append(out, r.due.String()+string(r.body))
		}
		return out
	}
	if !reflect.DeepEqual(bodies(1), bodies(1)) {
		t.Error("serve-mixed schedule differs for one seed")
	}
	if reflect.DeepEqual(bodies(1), bodies(2)) {
		t.Error("serve-mixed schedule does not change with the seed")
	}
	keys := func(seed uint64) []string {
		gen, err := newJobGen(seed)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := gen.jobs(100)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, j := range jobs {
			k, _ := j.Spec.CacheKey()
			out = append(out, k)
		}
		return out
	}
	if !reflect.DeepEqual(keys(1), keys(1)) {
		t.Error("fleet-sweep jobs differ for one seed")
	}
	if reflect.DeepEqual(keys(1), keys(2)) {
		t.Error("fleet-sweep jobs do not change with the seed")
	}
	if !reflect.DeepEqual(paperOrder(1, 0), paperOrder(1, 0)) {
		t.Error("paper-eval submission order differs for one seed")
	}
	if reflect.DeepEqual(paperOrder(1, 0), paperOrder(2, 0)) {
		t.Error("paper-eval submission order does not change with the seed")
	}
}

func TestDigestMasksWallClockCells(t *testing.T) {
	fig10 := func(adder, bv string) string {
		tb := eval.NewTable("Fig 10", "Family", "n=128", "n=160")
		tb.Add("Adder", adder, "0.041")
		tb.Add("BV", bv, "0.052")
		return tb.String()
	}
	if tableDigest("fig10", fig10("0.004", "0.006")) != tableDigest("fig10", fig10("12.345", "0.006")) {
		t.Error("fig10 digest depends on a wall-clock cell or its width")
	}
	if tableDigest("table2", fig10("0.004", "0.006")) == tableDigest("table2", fig10("0.005", "0.006")) {
		t.Error("table2 digest masks cells")
	}

	fig11 := func(technique, time, fidelity string) string {
		tb := eval.NewTable("Fig 11", "Technique", "CompileTime(s)", "Fidelity")
		tb.Add(technique, time, fidelity)
		tb.Add("SABRE + SWAP", "0.112", "0.8127")
		return tb.String() + "\n"
	}
	base := tableDigest("fig11", fig11("Trivial", "0.004", "0.823"))
	if base != tableDigest("fig11", fig11("Trivial", "10.250", "0.823")) {
		t.Error("fig11 digest depends on the CompileTime(s) column")
	}
	// FormatLog10F drops trailing zeros, so a fidelity can read like a
	// three-decimal time; it must still count.
	if base == tableDigest("fig11", fig11("Trivial", "0.004", "0.824")) {
		t.Error("fig11 digest ignores a three-decimal fidelity cell")
	}
	if base == tableDigest("fig11", fig11("SABRE", "0.004", "0.823")) {
		t.Error("fig11 digest ignores the Technique column")
	}
}

// TestServerSpeaksH2C checks the load generator's connections carry
// unencrypted HTTP/2, so a handful of them hold any concurrency.
func TestServerSpeaksH2C(t *testing.T) {
	if testing.Short() {
		t.Skip("serves HTTP")
	}
	s, err := startServer(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ProtoMajor != 2 {
		t.Errorf("loopback requests use %s, want HTTP/2", resp.Proto)
	}
}

// TestStalledScheduleIsRejected checks that a load generator that sends
// its requests long after their due times invalidates the run.
func TestStalledScheduleIsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("serves HTTP")
	}
	ctx := context.Background()
	s, err := startServer(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	body, _ := json.Marshal(map[string]string{"app": "GHZ_n32"})
	var sched []serveReq
	for i := range 10 {
		// Due a second before the schedule starts: every request goes out
		// about a second late, as after a stall.
		sched = append(sched, serveReq{due: time.Duration(i)*time.Millisecond - time.Second, app: "GHZ_n32", body: body})
	}
	if _, err := s.drive(ctx, sched, nil, nil); err == nil || !strings.Contains(err.Error(), "fell behind") {
		t.Errorf("a stalled schedule was accepted: err = %v", err)
	}
	for i := range sched {
		sched[i].due += time.Second
	}
	if _, err := s.drive(ctx, sched, nil, nil); err != nil {
		t.Errorf("a schedule played on time was rejected: %v", err)
	}
}

// TestSwapThenGateMisread pins which verifier rejections are classed as
// its known misreading of a SWAP followed by a gate on the same pair; any
// other rejection must stay a correctness failure.
func TestSwapThenGateMisread(t *testing.T) {
	swap := sim.Op{Kind: "fiber", Qubits: []int{5, 2}, Zone: 7, ZoneB: 11}
	gate := sim.Op{Kind: "fiber", Qubits: []int{2, 5}, Zone: 7, ZoneB: 11}
	other := sim.Op{Kind: "gate1", Qubits: []int{9}, Zone: 3}
	misread := errors.New("verify: op 5 fiber zones 7/11 but qubits at 11/7")
	cases := []struct {
		name  string
		trace []sim.Op
		err   error
		want  bool
	}{
		{"swap then gate", []sim.Op{other, swap, other, swap, swap, gate}, misread, true},
		{"other error", []sim.Op{other, swap, other, swap, swap, gate}, errors.New("verify: op 5 overfills zone 7"), false},
		{"two swap gates", []sim.Op{other, other, other, swap, swap, gate}, misread, false},
		{"op between", []sim.Op{other, swap, swap, sim.Op{Kind: "gate1", Qubits: []int{2}, Zone: 11}, swap, gate}, misread, false},
		{"same bindings", []sim.Op{other, swap, other, swap, swap, swap}, misread, false},
		{"zones not exchanged", []sim.Op{other, swap, other, swap, swap, gate}, errors.New("verify: op 5 fiber zones 7/11 but qubits at 7/3"), false},
		{"index past trace", []sim.Op{swap, swap, swap}, misread, false},
	}
	for _, c := range cases {
		if got := swapThenGateMisread(c.trace, c.err); got != c.want {
			t.Errorf("%s: swapThenGateMisread = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSuiteRejectionsAreMisreads checks the classification on real
// schedules: each rejection of a BV_n128 point of the suite (several are
// rejected while the verifier misreads SWAPs) is the misreading, not a
// fault.
func TestSuiteRejectionsAreMisreads(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 128-qubit circuits")
	}
	points, _, err := suitePoints()
	if err != nil {
		t.Fatal(err)
	}
	var sample []eval.CompileSpec
	for _, p := range points {
		if p.App == "BV_n128" && p.Compiler == "mussti" {
			sample = append(sample, p)
		}
	}
	o := &outcome{layer: map[string]float64{}}
	if err := probeCompiles(context.Background(), o, sample, newTracer()); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || o.layer["sim.verify_failures"] != 0 {
		t.Fatalf("verifier faults on BV_n128: %v", o.problems)
	}
	t.Logf("%d of %d BV_n128 schedules misread by the verifier", int(o.layer["sim.verify_misread"]), len(sample))
}
