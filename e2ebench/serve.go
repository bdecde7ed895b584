package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mussti/internal/arch"
	"mussti/internal/circuit"
	"mussti/internal/circuit/bench"
	"mussti/internal/core"
	"mussti/internal/eval"
	"mussti/internal/service"
)

// serve-mixed: an open loop. Seeded Poisson arrivals at serveRate go to an
// in-process service behind an http.Server on loopback, over unencrypted
// HTTP/2 so at most NumCPU connections carry the full concurrency into the
// service's admission queue. Each request is timed from its due time.

const (
	// serveRate is the open loop's arrival rate in requests per second.
	serveRate = 150.0
	// serveLimit is the latency limit slo_ok_ratio counts requests against.
	serveLimit = 250 * time.Millisecond
	// lateLimit is how late the 99th percentile of requests may be sent;
	// a load generator later than that has not played its schedule, and
	// the run is invalid. The generator shares the process, and so its two
	// Ps, with the compiles, and Go preempts a running goroutine only
	// after about 10 ms: a due request can wait one such slice. The limit
	// is two and a half slices, a tenth of serveLimit.
	lateLimit = 25 * time.Millisecond
	// zipfS is the Zipf exponent of the hot apps' popularity; Go's
	// generator wants it above 1.
	zipfS = 1.2
	// gatesPerQubit sizes the unique QASM circuits: half their gates are
	// CX, so they hold 4.5 two-qubit gates per qubit, near the median of
	// the small-scale suite (0.5 to 16, median 4.3).
	gatesPerQubit = 9
	// hotShare and streamEvery shape the mix: ~70% built-in apps, the
	// rest unique QASM (half of them lowered); every streamEvery-th request
	// streams progress.
	hotShare    = 0.7
	streamEvery = 33
)

// hotApps are the built-in apps, most requested first (Zipf-ranked): the
// small-scale suite of Table 2 and Fig. 6 in the order it lists them, then
// SQRT_n117, the only medium-scale app of at most 117 qubits.
var hotApps = append(bench.SmallSuite(), "SQRT_n117")

// serveReq is one scheduled request.
type serveReq struct {
	due    time.Duration // offset from the start of the schedule
	app    string        // built-in app, or "" for QASM
	qasm   string
	name   string
	lower  bool
	stream bool
	body   []byte
}

func (r serveReq) key() string {
	if r.app != "" {
		return "app:" + r.app
	}
	return fmt.Sprintf("qasm:%s|%t", r.name, r.lower)
}

// serveSchedule generates the seeded request schedule for dur.
func serveSchedule(seed uint64, dur time.Duration) []serveReq {
	rng := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(hotApps)-1))
	sizes := newStratified(rng, qasmMinQubits, qasmMaxQubits)
	var out []serveReq
	t, cold := 0.0, 0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / serveRate
		if t >= dur.Seconds() {
			return out
		}
		r := serveReq{due: time.Duration(t * float64(time.Second)), stream: i%streamEvery == 7}
		body := map[string]any{}
		if rng.Float64() < hotShare {
			r.app = hotApps[zipf.Uint64()]
			body["app"] = r.app
		} else {
			r.name = fmt.Sprintf("s%d_%d", seed, i)
			r.qasm = randomQASM(rng, sizes.next())
			r.lower = cold%2 == 0
			cold++
			body["qasm"], body["name"], body["lower"] = r.qasm, r.name, r.lower
		}
		if r.stream {
			body["stream"] = true
		}
		r.body, _ = json.Marshal(body)
		out = append(out, r)
	}
}

// QASM circuits span qasmMinQubits..qasmMaxQubits qubits.
const qasmMinQubits, qasmMaxQubits = 16, 64

// stratified hands out every size of [lo, hi] once per block, in a seeded
// order, so each seed's circuits have the same size mix: the latency tail
// of a run follows from the mix, not from which sizes one seed drew.
type stratified struct {
	rng    *rand.Rand
	lo, hi int
	block  []int
}

func newStratified(rng *rand.Rand, lo, hi int) *stratified {
	return &stratified{rng: rng, lo: lo, hi: hi}
}

func (s *stratified) next() int {
	if len(s.block) == 0 {
		s.block = s.rng.Perm(s.hi - s.lo + 1)
	}
	n := s.lo + s.block[0]
	s.block = s.block[1:]
	return n
}

// randomQASM writes a random n-qubit OpenQASM 2.0 circuit of
// gatesPerQubit·n gates.
func randomQASM(rng *rand.Rand, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\ncreg c[%d];\n", n, n)
	for g := 0; g < gatesPerQubit*n; g++ {
		a := rng.Intn(n)
		switch p := rng.Intn(10); {
		case p < 5:
			c := (a + 1 + rng.Intn(n-1)) % n
			fmt.Fprintf(&b, "cx q[%d],q[%d];\n", a, c)
		case p < 7:
			fmt.Fprintf(&b, "h q[%d];\n", a)
		case p < 9:
			fmt.Fprintf(&b, "rz(%.4f) q[%d];\n", rng.Float64()*3, a)
		default:
			fmt.Fprintf(&b, "t q[%d];\n", a)
		}
	}
	return b.String()
}

// compileResult mirrors the service's JSON result; compile_ms is left out,
// being wall-clock.
type compileResult struct {
	App           string  `json:"app"`
	Compiler      string  `json:"compiler"`
	Qubits        int     `json:"qubits"`
	TwoQubit      int     `json:"two_qubit_gates"`
	Shuttles      int     `json:"shuttles"`
	ChainSwaps    int     `json:"chain_swaps"`
	InsertedSwaps int     `json:"inserted_swaps"`
	FiberGates    int     `json:"fiber_gates"`
	TimeUS        float64 `json:"time_us"`
	Fidelity      float64 `json:"fidelity"`
	Log10F        float64 `json:"log10_fidelity"`
}

func resultOfMeasurement(m eval.Measurement) compileResult {
	return compileResult{App: m.App, Compiler: m.Compiler, Qubits: m.Qubits, TwoQubit: m.TwoQubit,
		Shuttles: m.Shuttles, ChainSwaps: m.ChainSwaps, InsertedSwaps: m.InsertedSwaps,
		FiberGates: m.FiberGates, TimeUS: m.TimeUS, Fidelity: m.Fidelity, Log10F: m.Log10F}
}

type event struct {
	Event  string         `json:"event"`
	Result *compileResult `json:"result"`
	Error  string         `json:"error"`
}

// reqOutcome is what the client saw for one request.
type reqOutcome struct {
	status  int
	latency time.Duration
	result  *compileResult
	err     error
}

// server is one service instance on loopback, with its client.
type server struct {
	runner *eval.Runner
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// spanHeader carries the client's request span to the traced handler.
const spanHeader = "X-Musstibench-Span"

// startServer builds a runner and service, serves it on loopback, waits
// for /healthz and primes the hot apps; with a tracer every ServeHTTP call
// is a span.
func startServer(ctx context.Context, tr *tracer) (*server, error) {
	runner := eval.NewRunner(runtime.NumCPU())
	svc, err := service.New(service.Options{Runner: runner})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handler http.Handler = svc
	if tr != nil {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sp := tr.start(parentFromHeader(r.Header.Get(spanHeader)), "service.ServeHTTP")
			svc.ServeHTTP(w, r)
			sp.end()
		})
	}
	var serverProtos, clientProtos http.Protocols
	serverProtos.SetHTTP1(true)
	serverProtos.SetUnencryptedHTTP2(true)
	clientProtos.SetUnencryptedHTTP2(true)
	s := &server{
		runner: runner,
		srv:    &http.Server{Handler: handler, Protocols: &serverProtos},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{Protocols: &clientProtos, MaxConnsPerHost: runtime.NumCPU()}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		resp, err := s.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			s.close()
			return nil, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	// The built-in apps are hot: a service that has been up a while holds
	// them in its memo, so they compile once here, before any timed request.
	for _, app := range hotApps {
		body, _ := json.Marshal(map[string]string{"app": app})
		if out := s.send(ctx, serveReq{app: app, body: body}, time.Now(), nil); out.err != nil || out.status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("priming %s: status %d: %v", app, out.status, out.err)
		}
	}
	return s, nil
}

// close stops the server and waits for its Serve loop to return.
func (s *server) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
}

func parentFromHeader(h string) *active {
	t, id, ok := strings.Cut(h, "/")
	if !ok {
		return nil
	}
	trace, err1 := strconv.ParseInt(t, 10, 64)
	sid, err2 := strconv.ParseInt(id, 10, 64)
	if err1 != nil || err2 != nil {
		return nil
	}
	return &active{id: sid, trace: trace}
}

// send posts one request and reads its answer to the end; latency runs
// from due.
func (s *server) send(ctx context.Context, r serveReq, due time.Time, sp *active) reqOutcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/compile", bytes.NewReader(r.body))
	if err != nil {
		return reqOutcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if sp != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", sp.trace, sp.id))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reqOutcome{err: err, latency: time.Since(due)}
	}
	defer resp.Body.Close()
	out := reqOutcome{status: resp.StatusCode}
	var ev event
	if r.stream {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var e event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				out.err = err
				break
			}
			if e.Event == "done" || e.Event == "error" {
				ev = e
			}
		}
		if out.err == nil {
			out.err = sc.Err()
		}
	} else {
		out.err = json.NewDecoder(resp.Body).Decode(&ev)
		io.Copy(io.Discard, resp.Body)
	}
	out.latency = time.Since(due)
	switch {
	case out.err != nil:
	case ev.Event == "error":
		out.err = errors.New(ev.Error)
	case ev.Event != "done" || ev.Result == nil:
		out.err = fmt.Errorf("no done event (status %d)", resp.StatusCode)
	default:
		out.result = ev.Result
	}
	return out
}

// loadRun is one open-loop session's raw record.
type loadRun struct {
	sched    []serveReq
	outs     []reqOutcome
	late     []float64     // ms
	cpu      time.Duration // CPU time of this process while the schedule played
	rss      float64
	queueMax int64
	metrics  service.MetricsSnapshot
}

// drive plays the schedule against s. With a tracer each request is a
// span, and /metrics is polled for the queue's high-water mark.
func (s *server) drive(ctx context.Context, sched []serveReq, tr *tracer, root *active) (loadRun, error) {
	lr := loadRun{sched: sched, outs: make([]reqOutcome, len(sched)), late: make([]float64, len(sched))}
	stopPoll := make(chan struct{})
	var polled sync.WaitGroup
	if tr != nil {
		polled.Add(1)
		go func() {
			defer polled.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					if m, err := s.metricsSnapshot(ctx); err == nil {
						lr.queueMax = max(lr.queueMax, m.Queued)
					}
				}
			}
		}()
	}
	cpu0 := processCPU()
	begin := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i, r := range sched {
		due := begin.Add(r.due)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		lr.late[i] = ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.startAt(root, "request", due)
			lr.outs[i] = s.send(ctx, r, due, sp)
			sp.end()
		}()
	}
	wg.Wait()
	lr.cpu = processCPU() - cpu0
	lr.rss = peakRSSMB()
	close(stopPoll)
	polled.Wait()
	if err := ctx.Err(); err != nil {
		return lr, err
	}
	if late := quantile(slices.Clone(lr.late), 0.99); late > ms(lateLimit) {
		return lr, fmt.Errorf("the load generator fell behind its schedule: p99 %.1f ms late, limit %v", late, lateLimit)
	}
	if tr != nil {
		m, err := s.metricsSnapshot(ctx)
		if err != nil {
			return lr, err
		}
		lr.metrics = m
	}
	return lr, nil
}

func (s *server) metricsSnapshot(ctx context.Context) (service.MetricsSnapshot, error) {
	var m service.MetricsSnapshot
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	resp, err := s.client.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// expectedResults compiles every distinct request of the schedule in
// process, through the same public entry points the service calls, on
// NumCPU goroutines.
func expectedResults(ctx context.Context, sched []serveReq) (map[string]compileResult, map[string]error) {
	distinct := map[string]serveReq{}
	for _, r := range sched {
		distinct[r.key()] = r
	}
	keys := sortedKeys(distinct)
	want := make([]compileResult, len(keys))
	errs := make([]error, len(keys))
	parallelFor(len(keys), func(i int) {
		want[i], errs[i] = compileDirect(ctx, distinct[keys[i]])
	})
	wm, em := map[string]compileResult{}, map[string]error{}
	for i, k := range keys {
		if errs[i] != nil {
			em[k] = errs[i]
		} else {
			wm[k] = want[i]
		}
	}
	return wm, em
}

// compileDirect compiles one request in process: a built-in app through
// eval.RunSpec, a QASM circuit through parse, optional lowering and the
// registry compiler on the default device.
func compileDirect(ctx context.Context, r serveReq) (compileResult, error) {
	if r.app != "" {
		m, err := eval.RunSpecContext(ctx, eval.CompileSpec{App: r.app, Compiler: "mussti"})
		return resultOfMeasurement(m), err
	}
	c, err := circuit.ParseQASM(r.name, strings.NewReader(r.qasm))
	if err != nil {
		return compileResult{}, err
	}
	if r.lower {
		c = circuit.OptimizeOneQubit(circuit.LowerToNative(c))
	}
	comp, err := core.LookupCompiler("mussti")
	if err != nil {
		return compileResult{}, err
	}
	dev, err := arch.New(arch.DefaultConfig(c.NumQubits))
	if err != nil {
		return compileResult{}, err
	}
	cfg := core.DefaultConfigFor(comp)
	res, err := comp.Compile(ctx, c, dev, &cfg)
	if err != nil {
		return compileResult{}, err
	}
	return resultOfMeasurement(eval.MeasurementOf(c.Name, comp, c, res)), nil
}

// parallelFor runs fn(0..n-1) on NumCPU goroutines and waits.
func parallelFor(n int, fn func(i int)) {
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// checkLoad counts every request against the correctness gate: an error
// or a result that differs from the in-process compile fails it. A refusal
// (429) is the service's designed answer to overload, not a wrong output:
// it passes the gate but misses the latency limit. checkLoad reports which
// requests failed and which were refused.
func checkLoad(ctx context.Context, o *outcome, lr loadRun) (bad, refused []bool) {
	want, werr := expectedResults(ctx, lr.sched)
	bad, refused = make([]bool, len(lr.sched)), make([]bool, len(lr.sched))
	for i, r := range lr.sched {
		o.attempted++
		before := o.failed
		out := lr.outs[i]
		switch {
		case out.status == http.StatusTooManyRequests:
			refused[i] = true
		case out.err != nil:
			o.fail("request %d (%s): status %d: %v", i, r.key(), out.status, out.err)
		case out.status != http.StatusOK:
			o.fail("request %d (%s): status %d", i, r.key(), out.status)
		case werr[r.key()] != nil:
			o.fail("request %d (%s): in-process compile: %v", i, r.key(), werr[r.key()])
		case *out.result != want[r.key()]:
			o.fail("request %d (%s): served %+v, in-process %+v", i, r.key(), *out.result, want[r.key()])
		}
		bad[i] = o.failed > before
	}
	return bad, refused
}

// serveSetup starts a server and reports how long it took until it could
// serve the first timed request; all but the last of minSetups set-ups are
// closed again.
func serveSetup(ctx context.Context, tr *tracer) (*server, []float64, error) {
	var setups []float64
	for {
		t0 := time.Now()
		s, err := startServer(ctx, tr)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if len(setups) == minSetups {
			return s, setups, nil
		}
		s.close()
	}
}

func runServeMixed(ctx context.Context, rc runConfig, tr *tracer) (*outcome, error) {
	if tr != nil {
		return tracedServe(ctx, rc, tr)
	}
	s, setups, err := serveSetup(ctx, nil)
	if err != nil {
		return nil, err
	}
	lr, err := s.drive(ctx, serveSchedule(rc.seed, rc.dur), nil, nil)
	s.close()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "musstibench: serve-mixed loadgen.late_ms_p99 = %g ms (limit %v)\n", quantile(slices.Clone(lr.late), 0.99), lateLimit)
	o := &outcome{}
	bad, refused := checkLoad(ctx, o, lr)
	var all, cold []float64
	ok, within := 0, 0
	for i, r := range lr.sched {
		if refused[i] {
			continue
		}
		out := lr.outs[i]
		all = append(all, ms(out.latency))
		if r.app == "" {
			cold = append(cold, ms(out.latency))
		}
		if !bad[i] {
			ok++
			if out.latency <= serveLimit {
				within++
			}
		}
	}
	o.e2e = map[string]float64{
		"setup_s":         median(setups),
		"eval_wall_s":     busyTime(lr).Seconds(),
		"peak_rss_mb":     lr.rss,
		"req_p50_ms":      quantile(all, 0.5),
		"req_p99_ms":      quantile(all, 0.99),
		"compiled_p50_ms": quantile(cold, 0.5),
		"compiled_p90_ms": quantile(cold, 0.9),
		// A request that was refused, failed or mismatched misses the
		// limit too.
		"slo_ok_ratio": float64(within) / float64(len(lr.sched)),
		"jobs_per_s":   float64(ok) / lr.cpu.Seconds(),
	}
	return o, nil
}

// busyTime is how long at least one request of lr was outstanding: the
// union of the spans from each request's due time to its answer. The
// arrival rate fixes the schedule's length; busyTime is the part of it the
// service spent answering, so a faster service shrinks it.
func busyTime(lr loadRun) time.Duration {
	var busy, end time.Duration // end: the latest answer so far
	for i, r := range lr.sched {
		from, to := max(r.due, end), r.due+lr.outs[i].latency
		if to > from {
			busy += to - from
			end = to
		}
	}
	return busy
}

// tracedServe plays the first half of the schedule untraced and the
// second half traced, each on a fresh server, and reports the service,
// load-generator and runner counts of the traced half.
func tracedServe(ctx context.Context, rc runConfig, tr *tracer) (*outcome, error) {
	half := max(rc.dur/2, time.Second)
	sched := serveSchedule(rc.seed, half)
	ref, err := startServer(ctx, nil)
	if err != nil {
		return nil, err
	}
	refRun, err := ref.drive(ctx, sched, nil, nil)
	ref.close()
	if err != nil {
		return nil, err
	}
	o, err := serveLayers(ctx, sched, tr)
	if err != nil {
		return nil, err
	}
	var refLat []float64
	for _, out := range refRun.outs {
		refLat = append(refLat, ms(out.latency))
	}
	o.headline = o.headline / median(refLat)
	return o, nil
}

// serveLayers plays sched traced on a fresh server and derives the
// per-layer metrics of the service, load generator and runner; headline
// is the median request latency.
func serveLayers(ctx context.Context, sched []serveReq, tr *tracer) (*outcome, error) {
	s, err := startServer(ctx, tr)
	if err != nil {
		return nil, err
	}
	root := tr.start(nil, "workload.serve-mixed")
	lr, err := s.drive(ctx, sched, tr, root)
	root.end()
	hits, misses := s.runner.CacheStats()
	s.close()
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	checkLoad(ctx, o, lr)
	var all, hot, stream []float64
	seen := map[string]bool{}
	for i, r := range lr.sched {
		l := ms(lr.outs[i].latency)
		all = append(all, l)
		if r.stream {
			stream = append(stream, l)
		}
		if r.app != "" && seen[r.app] && !r.stream {
			hot = append(hot, l)
		}
		seen[r.app] = true
	}
	m := lr.metrics
	o.headline = median(all)
	o.layer = map[string]float64{
		"service.handler_ms_p50": median(tr.durations("service.ServeHTTP")),
		"service.hot_p50_ms":     quantile(hot, 0.5),
		"service.hot_p99_ms":     quantile(hot, 0.99),
		"service.stream_p50_ms":  quantile(stream, 0.5),
		"service.compiles":       float64(m.Compiles),
		"service.cache_served":   float64(m.CacheServed),
		"service.rejected":       float64(m.Rejected),
		"service.failures":       float64(m.Failures),
		"service.queued_max":     float64(lr.queueMax),
		"loadgen.sent":           float64(len(lr.sched)),
		"loadgen.late_ms_p99":    quantile(lr.late, 0.99),
		"eval.jobs":              float64(hits + misses),
		"eval.memo_hits":         float64(hits),
		"eval.memo_misses":       float64(misses),
		"eval.memo_hit_ratio":    float64(hits) / float64(max(hits+misses, 1)),
	}
	return o, nil
}
