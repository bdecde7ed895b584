// Package service exposes the MUSS-TI compiler as an HTTP+JSON service:
// clients POST circuits (built-in paper benchmarks or inline OpenQASM 2.0)
// to /v1/compile and receive the compiled measurement — optionally as a
// stream of progress events fed by the compiler's per-step Observer
// callbacks. The service is a thin shell over the experiment harness's
// eval.Runner, so every caching and execution layer carries over unchanged:
// concurrent identical requests coalesce onto one compile through the memo
// singleflight, results persist to the shared disk cache when one is
// attached, and a dist worker fleet compiles remote when the runner has one
// set.
//
// Endpoints:
//
//	POST /v1/compile    compile one circuit; see compileRequest
//	GET  /v1/compilers  registered compiler names and labels
//	GET  /v1/benchmarks built-in benchmark families and the naming scheme
//	GET  /metrics       operational counters; see MetricsSnapshot
//	GET  /healthz       liveness probe
//
// Admission control bounds the service's footprint: at most MaxInFlight
// requests compile concurrently, at most MaxQueue wait behind them, and
// everything beyond that is rejected with 429 before any work happens. Each
// request compiles under its own request context, so a disconnected client
// aborts its compile within one scheduler step — unless another in-flight
// request has coalesced onto the same measurement, in which case the memo
// hands leadership over and the compile continues for the survivors.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"mussti/internal/circuit/bench"
	"mussti/internal/core"
	"mussti/internal/dist"
	"mussti/internal/eval"
)

// Options configures a Server.
type Options struct {
	// Runner executes the compiles; required. The server installs its
	// metrics collector as the runner's job hook (SetJobHook), so the
	// runner must not have another hook attached.
	Runner *eval.Runner
	// Fleet, when the runner dispatches to a dist coordinator, lets
	// /metrics report fleet health. Optional and informational only: the
	// dispatch wiring itself is Runner.SetRemote, done by the caller.
	Fleet *dist.Coordinator
	// MaxInFlight bounds concurrent compiles; 0 means Runner.Workers().
	MaxInFlight int
	// MaxQueue bounds requests waiting for a compile slot; 0 means
	// 4×MaxInFlight. Beyond it requests get 429.
	MaxQueue int
	// StreamInterval is the progress-event cadence for streamed responses;
	// 0 means 500ms.
	StreamInterval time.Duration
}

// Server is the compilation service. Create one with New and serve it with
// net/http; it implements http.Handler.
type Server struct {
	runner         *eval.Runner
	fleet          *dist.Coordinator
	maxQueue       int64
	streamInterval time.Duration

	slots    chan struct{} // compile-slot semaphore, cap MaxInFlight
	queued   atomic.Int64
	inFlight atomic.Int64
	metrics  metrics

	mux *http.ServeMux
}

// New builds a Server over opts.Runner and installs the metrics collector
// as the runner's job hook.
func New(opts Options) (*Server, error) {
	if opts.Runner == nil {
		return nil, fmt.Errorf("service: Options.Runner is required")
	}
	inFlight := opts.MaxInFlight
	if inFlight <= 0 {
		inFlight = opts.Runner.Workers()
	}
	queue := opts.MaxQueue
	if queue <= 0 {
		queue = 4 * inFlight
	}
	interval := opts.StreamInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	s := &Server{
		runner:         opts.Runner,
		fleet:          opts.Fleet,
		maxQueue:       int64(queue),
		streamInterval: interval,
		slots:          make(chan struct{}, inFlight),
		mux:            http.NewServeMux(),
	}
	s.runner.SetJobHook(s.metrics.observe)
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("GET /v1/compilers", s.handleCompilers)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errOverloaded marks admission rejections (HTTP 429).
var errOverloaded = errors.New("service: compile queue full")

// admit claims a compile slot, queueing behind MaxQueue waiters at most.
// It returns the release closure, errOverloaded when the queue is full, or
// ctx.Err() when the client disconnected while queued.
func (s *Server) admit(r *http.Request) (release func(), err error) {
	claim := func() func() {
		s.inFlight.Add(1)
		return func() {
			s.inFlight.Add(-1)
			<-s.slots
		}
	}
	select {
	case s.slots <- struct{}{}:
		return claim(), nil
	default:
	}
	if s.queued.Add(1) > s.maxQueue {
		s.queued.Add(-1)
		return nil, errOverloaded
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return claim(), nil
	case <-r.Context().Done():
		return nil, r.Context().Err()
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEvent{Event: "error", Error: err.Error()})
}

// maxBodyBytes bounds the request body; QASMBench's largest circuits are
// well under this.
const maxBodyBytes = 8 << 20

// decodeCompileRequest reads one /v1/compile JSON body. Unknown fields are
// an error, so a misspelt knob never silently falls back to its default.
func decodeCompileRequest(r io.Reader) (compileRequest, error) {
	var req compileRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return compileRequest{}, fmt.Errorf("decoding request: %w", err)
	}
	return req, nil
}

// handleCompile decodes, resolves, admits and runs one compile request.
// Resolution happens before admission — malformed requests never hold a
// compile slot — and the whole compile runs under the request context, so a
// client disconnect cancels it mid-flight.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	req, err := decodeCompileRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	t, err := s.resolve(&req)
	if err != nil {
		status := http.StatusInternalServerError
		var bad badRequest
		if errors.As(err, &bad) {
			status = http.StatusBadRequest
		}
		httpError(w, status, err)
		return
	}
	release, err := s.admit(r)
	if err != nil {
		if errors.Is(err, errOverloaded) {
			s.metrics.reject()
			httpError(w, http.StatusTooManyRequests, err)
		}
		// Client gone while queued: nobody is listening, write nothing.
		return
	}
	defer release()
	s.metrics.admitted()
	if req.Stream {
		s.streamCompile(w, r, t)
		return
	}
	m, err := t.run(r.Context(), nil)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone mid-compile
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doneEvent{Event: "done", Result: resultOf(m)})
}

// compilerInfo is one GET /v1/compilers row.
type compilerInfo struct {
	Name  string `json:"name"`
	Label string `json:"label"`
}

func (s *Server) handleCompilers(w http.ResponseWriter, _ *http.Request) {
	var out []compilerInfo
	for _, c := range core.Compilers() {
		out = append(out, compilerInfo{Name: c.Name(), Label: core.CompilerLabel(c)})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// benchmarksInfo is the GET /v1/benchmarks body: the built-in families and
// how to name a member ("<family>_n<qubits>", e.g. "qft_n32"; family case is
// ignored).
type benchmarksInfo struct {
	Families []string `json:"families"`
	Naming   string   `json:"naming"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(benchmarksInfo{
		Families: bench.Families(),
		Naming:   "<family>_n<qubits>, e.g. qft_n32",
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.snapshot()
	snap.InFlight = s.inFlight.Load()
	snap.Queued = s.queued.Load()
	snap.Memo = cacheStatsOf(s.runner.CacheStats())
	snap.Disk = cacheStatsOf(s.runner.DiskCacheStats())
	if s.fleet != nil {
		st := s.fleet.Stats()
		snap.Fleet = &FleetStats{
			Workers:    s.fleet.Workers(),
			Capacity:   s.fleet.Capacity(),
			Dispatched: st.Dispatched,
			Batched:    st.Batched,
			Batches:    st.Batches,
			Retried:    st.Retried,
			Deaths:     st.Deaths,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}
