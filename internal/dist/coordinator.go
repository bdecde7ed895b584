package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mussti/internal/eval"
)

// Coordinator owns a fleet of spawned worker processes and dispatches jobs
// to them over the stdin/stdout envelope protocol. It implements
// eval.RemoteExecutor (and eval.PipelinedExecutor), so plugging it into a
// Runner via SetRemote turns the in-process pool into a multi-process one
// without changing any scheduling semantics: the Runner still bounds
// concurrency, memoizes, reports the deterministic first error and
// reassembles results in paper order — the coordinator is pure transport
// plus fault handling.
//
// Dispatch is pipelined and multiplexed: each worker has a sender/receiver
// goroutine pair that keeps up to Pipeline jobs in flight at once, matching
// results to outstanding jobs by seq (results may complete out of order on
// the wire; ordering is the Runner's job). Jobs arriving while a worker has
// window to spare coalesce into one batch frame, which the worker answers
// job by job through Runner.RunJobs. Most compiles are sub-millisecond, so
// without the window every job would pay a full process round-trip of
// protocol latency; with it the pipe and the worker stay busy
// simultaneously.
//
// Liveness: the sender pings each worker every heartbeat interval, and the
// worker answers from its read loop even mid-compile. A worker with jobs in
// flight that stays silent for HeartbeatMisses consecutive intervals is
// declared dead. A worker that is alive but completes nothing for a full
// interval has its window shrunk to 1 (backpressure: new jobs route to
// faster workers) until it completes something.
//
// Fault model: a worker that dies mid-job (crash, OOM kill, machine loss
// for remote launchers, heartbeat timeout) is reaped, a replacement is
// spawned to restore fleet capacity, and every job in its window is
// requeued to the surviving fleet, each consuming one of its MaxAttempts.
// Real job errors — a measurement that fails identically everywhere — are
// never retried; they travel back inside result envelopes and surface
// exactly like an in-process job failure.
type Coordinator struct {
	n    int
	argv []string
	opts CoordinatorOptions

	// seq numbers every dispatched frame; fresh on each dispatch (retries
	// included) so a late answer to a previous attempt can never be confused
	// with the current one.
	seq atomic.Uint64
	// submit is the unbuffered dispatch queue: RunJob blocking on the send
	// is the global backpressure when every worker's window is full.
	submit chan *call

	// ctx is the coordinator's lifecycle: cancelled by Close or by a
	// fleet-lost failure, it unblocks every waiter and stops every loop.
	ctx    context.Context
	cancel context.CancelFunc

	stats coordStats

	mu     sync.Mutex
	procs  map[*workerProc]struct{}
	nextID int
	closed bool
	// failErr, when non-nil, is why the coordinator shut itself down
	// (fleet lost); RunJob reports it instead of the generic errClosed.
	failErr error
	// wg joins every per-worker goroutine pair; Close waits for it.
	wg sync.WaitGroup
}

// CoordinatorOptions tune fleet behaviour; the zero value is ready to use.
type CoordinatorOptions struct {
	// Stderr receives every worker's stderr (progress ticks, crash
	// reports), each line prefixed with a stable worker id ("[w3] ...").
	// Nil means the coordinator process's own stderr.
	Stderr io.Writer
	// Env is the environment for spawned workers; nil inherits the
	// coordinator's.
	Env []string
	// MaxAttempts bounds how many workers one job may be dispatched to
	// before the job is failed (0 means 3). Only worker deaths consume
	// attempts; job errors are definitive on the first worker.
	MaxAttempts int
	// Pipeline is how many jobs the coordinator keeps in flight per worker
	// (0 means 4). 1 restores lockstep dispatch: one job on the wire per
	// worker at a time. Output is byte-identical at any setting.
	Pipeline int
	// Launcher starts worker processes; nil means LocalLauncher (direct
	// child processes). See CommandLauncher for ssh-style fleets.
	Launcher WorkerLauncher
	// Heartbeat is the liveness probe interval (0 means 500ms).
	Heartbeat time.Duration
	// HeartbeatMisses is how many consecutive silent intervals a worker
	// with jobs in flight may accumulate before it is declared dead and
	// its window requeued (0 means 6 — three seconds at the default
	// interval, far above any pipe round-trip and far below a hang).
	HeartbeatMisses int
}

const (
	defaultMaxAttempts     = 3
	defaultPipeline        = 4
	defaultHeartbeat       = 500 * time.Millisecond
	defaultHeartbeatMisses = 6
)

// errClosed reports dispatch on a Close()d coordinator.
var errClosed = errors.New("dist: coordinator closed")

// call is one RunJob moving through the coordinator: the spec validated
// once at submission, the waiter's context, and a buffered outcome channel.
// attempts is touched only by the goroutine currently owning the call (one
// sender at a time, then at most one requeue), never concurrently.
type call struct {
	ctx      context.Context
	spec     WireSpec
	attempts int
	done     chan outcome
}

type outcome struct {
	m   eval.Measurement
	err error
}

// deliver hands the waiter its outcome; a second delivery (or one to a
// waiter that already gave up) is dropped by the buffered channel.
func (cl *call) deliver(m eval.Measurement, err error) {
	select {
	case cl.done <- outcome{m, err}:
	default:
	}
}

// coordStats are the coordinator's cumulative dispatch counters.
type coordStats struct {
	dispatched atomic.Uint64
	batched    atomic.Uint64
	batches    atomic.Uint64
	retried    atomic.Uint64
	deaths     atomic.Uint64
}

// CoordinatorStats is a snapshot of fleet dispatch counters, for
// diagnostics and fault-path tests.
type CoordinatorStats struct {
	// Dispatched counts jobs written to workers, retries included.
	Dispatched uint64
	// Batched counts jobs that shared a coalesced batch frame with at
	// least one other job; Batches counts the frames.
	Batched uint64
	Batches uint64
	// Retried counts jobs requeued after their worker died.
	Retried uint64
	// Deaths counts workers reaped for cause: crash, protocol violation,
	// heartbeat timeout. Workers reaped by Close are not deaths.
	Deaths uint64
}

// Stats returns a snapshot of the coordinator's dispatch counters.
func (c *Coordinator) Stats() CoordinatorStats {
	return CoordinatorStats{
		Dispatched: c.stats.dispatched.Load(),
		Batched:    c.stats.batched.Load(),
		Batches:    c.stats.batches.Load(),
		Retried:    c.stats.retried.Load(),
		Deaths:     c.stats.deaths.Load(),
	}
}

// NewCoordinator spawns n worker processes running argv (argv[0] is the
// binary; a typical fleet runs the host binary itself with a -worker flag)
// and returns the coordinator managing them. On any spawn failure the
// already-started workers are cleaned up before the error returns. Close
// must be called to reap the fleet.
func NewCoordinator(n int, argv []string, opts *CoordinatorOptions) (*Coordinator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one worker, got %d", n)
	}
	if len(argv) == 0 || argv[0] == "" {
		return nil, fmt.Errorf("dist: coordinator needs a worker command")
	}
	c := &Coordinator{
		n:      n,
		argv:   append([]string(nil), argv...),
		submit: make(chan *call),
		procs:  make(map[*workerProc]struct{}),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	if opts != nil {
		c.opts = *opts
	}
	if c.opts.MaxAttempts <= 0 {
		c.opts.MaxAttempts = defaultMaxAttempts
	}
	if c.opts.Pipeline <= 0 {
		c.opts.Pipeline = defaultPipeline
	}
	if c.opts.Launcher == nil {
		c.opts.Launcher = LocalLauncher{}
	}
	if c.opts.Heartbeat <= 0 {
		c.opts.Heartbeat = defaultHeartbeat
	}
	if c.opts.HeartbeatMisses <= 0 {
		c.opts.HeartbeatMisses = defaultHeartbeatMisses
	}
	for i := 0; i < n; i++ {
		w, err := c.spawn()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.start(w)
	}
	return c, nil
}

// Workers reports the fleet size.
func (c *Coordinator) Workers() int { return c.n }

// Capacity reports how many jobs the fleet absorbs concurrently: workers ×
// pipeline window. It implements eval.PipelinedExecutor, so SetRemote
// widens the runner's pool to keep every window full.
func (c *Coordinator) Capacity() int { return c.n * c.opts.Pipeline }

// workerProc is one spawned worker: its protocol streams, its window of
// outstanding jobs, and the receiver→sender signalling.
type workerProc struct {
	id    int
	h     WorkerHandle
	stdin io.WriteCloser
	out   *bufio.Reader
	errw  *prefixWriter

	mu          sync.Mutex
	outstanding map[uint64]*call

	// freed wakes the sender when a window slot opens (buffered 1; a
	// coalesced wake covers any number of completions).
	freed chan struct{}
	// heard is set by the receiver on every frame and swapped false at
	// each heartbeat tick: false across a whole interval with jobs in
	// flight means the worker is silent. completed works the same way for
	// job completions and drives the slow-worker window shrink.
	heard     atomic.Bool
	completed atomic.Bool

	// failOnce/failErr/failed publish the first fatal error: transport
	// failure, protocol violation, or heartbeat timeout.
	failOnce sync.Once
	failErr  error
	failed   chan struct{}

	// term makes process termination idempotent: a death-path reap and a
	// coordinator Close may race to shut the same worker down, and the
	// handle tolerates neither double Wait nor concurrent Wait.
	term sync.Once
}

// fail records the worker's first fatal error and signals both loops.
func (w *workerProc) fail(err error) {
	w.failOnce.Do(func() {
		w.failErr = err
		close(w.failed)
	})
}

// inflight reports how many jobs the worker currently has in its window.
func (w *workerProc) inflight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.outstanding)
}

// track registers a dispatched call under its wire seq.
func (w *workerProc) track(seq uint64, cl *call) {
	w.mu.Lock()
	w.outstanding[seq] = cl
	w.mu.Unlock()
}

// take claims the call answering to seq, removing it from the window.
func (w *workerProc) take(seq uint64) (*call, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cl, ok := w.outstanding[seq]
	if ok {
		delete(w.outstanding, seq)
	}
	return cl, ok
}

// drain empties the window, returning its calls in seq (dispatch) order so
// requeueing is deterministic.
func (w *workerProc) drain() []*call {
	w.mu.Lock()
	defer w.mu.Unlock()
	seqs := make([]uint64, 0, len(w.outstanding))
	for seq := range w.outstanding { //mussti:allow=determinism requeue order is fixed by the seq sort below, not by map order
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	calls := make([]*call, len(seqs))
	for i, seq := range seqs {
		calls[i] = w.outstanding[seq]
	}
	w.outstanding = make(map[uint64]*call)
	return calls
}

// terminate shuts the worker process down and reaps it: stdin closes (a
// worker between jobs exits on the EOF), and after the grace period the
// process is killed. Zero grace kills immediately — the path for workers
// whose state is unknown. terminate always returns with the process reaped
// and any buffered stderr flushed.
func (w *workerProc) terminate(grace time.Duration) {
	w.term.Do(func() {
		w.stdin.Close()
		done := make(chan struct{})
		go func() {
			w.h.Wait()
			close(done)
		}()
		if grace > 0 {
			select {
			case <-done:
				w.errw.Flush()
				return
			case <-time.After(grace):
			}
		}
		w.h.Kill()
		<-done
		w.errw.Flush()
	})
}

// spawn launches one worker process and registers it for cleanup.
func (c *Coordinator) spawn() (*workerProc, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	id := c.nextID
	c.nextID++
	c.mu.Unlock()

	base := c.opts.Stderr
	if base == nil {
		base = os.Stderr
	}
	errw := newPrefixWriter(base, fmt.Sprintf("[w%d] ", id))
	h, err := c.opts.Launcher.Launch(c.argv, c.opts.Env, errw)
	if err != nil {
		return nil, fmt.Errorf("dist: spawning worker: %w", err)
	}
	w := &workerProc{
		id:          id,
		h:           h,
		stdin:       h.Stdin(),
		out:         bufio.NewReader(h.Stdout()),
		errw:        errw,
		outstanding: make(map[uint64]*call),
		freed:       make(chan struct{}, 1),
		failed:      make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		w.terminate(0)
		return nil, errClosed
	}
	c.procs[w] = struct{}{}
	c.mu.Unlock()
	return w, nil
}

// start runs the worker's sender/receiver pair under the coordinator's
// WaitGroup.
func (c *Coordinator) start(w *workerProc) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.runWorker(w)
	}()
}

// reap removes a dead (or dying) worker from the fleet and ensures the
// process is gone.
func (c *Coordinator) reap(w *workerProc) {
	c.mu.Lock()
	delete(c.procs, w)
	c.mu.Unlock()
	w.terminate(0)
}

// runWorker is one worker's lifetime: a receiver goroutine owning the read
// side for as long as the process lives, the send loop inline, and — on
// worker death — the reap/respawn/requeue sequence.
func (c *Coordinator) runWorker(w *workerProc) {
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		c.receive(w)
	}()
	c.sendLoop(w)
	if c.ctx.Err() != nil {
		// Coordinator shutdown: Close (or the fleet-lost path) terminates
		// and reaps every registered worker; just join the receiver.
		<-recvDone
		return
	}
	// Worker death. Kill the process first so the receiver unblocks, join
	// it, then reap — after this no result for the window can arrive, so
	// requeueing cannot double-execute a job.
	w.terminate(0)
	<-recvDone
	c.reap(w)
	c.stats.deaths.Add(1)
	cause := w.failErr
	if cause == nil {
		cause = errors.New("dist: worker failed")
	}
	fmt.Fprintf(w.errw, "dist: worker died: %v\n", cause)
	// Restore fleet capacity before requeueing, so the requeued jobs have a
	// sender to land on even in a single-worker fleet.
	if nw, err := c.spawn(); err == nil {
		c.start(nw)
	} else if !errors.Is(err, errClosed) {
		c.mu.Lock()
		alive := len(c.procs)
		c.mu.Unlock()
		if alive == 0 {
			// The fleet is gone and cannot be rebuilt: shut down, waking
			// every submitted and waiting RunJob with the cause.
			c.failFleet(fmt.Errorf("dist: worker fleet lost: %w (and respawning a worker failed: %v)", cause, err))
		}
	}
	c.requeue(w, cause)
}

// requeue puts every job from a dead worker's window back on the dispatch
// queue (in dispatch order), failing jobs that exhausted MaxAttempts.
func (c *Coordinator) requeue(w *workerProc, cause error) {
	for _, cl := range w.drain() {
		if cl.attempts >= c.opts.MaxAttempts {
			cl.deliver(eval.Measurement{}, fmt.Errorf("dist: job failed on %d workers: %w", cl.attempts, cause))
			continue
		}
		select {
		case c.submit <- cl:
			c.stats.retried.Add(1)
		case <-cl.ctx.Done():
			cl.deliver(eval.Measurement{}, cl.ctx.Err())
		case <-c.ctx.Done():
			cl.deliver(eval.Measurement{}, c.closedErr())
		}
	}
}

// sendLoop is the worker's dispatch side: it pulls calls from the shared
// submit queue while the window has room, coalesces queued-up calls into
// batch frames, and runs the heartbeat clock. It returns when the worker
// fails or the coordinator shuts down.
func (c *Coordinator) sendLoop(w *workerProc) {
	hb := time.NewTicker(c.opts.Heartbeat)
	defer hb.Stop()
	silent, stale := 0, 0
	for {
		window := c.opts.Pipeline
		if stale > 0 {
			// Backpressure: the worker went a full interval without
			// completing anything. Shrink its window to 1 so new jobs
			// route to faster workers until it proves alive again.
			window = 1
		}
		free := window - w.inflight()
		if free <= 0 {
			select {
			case <-w.freed:
			case <-hb.C:
				if !c.heartbeat(w, &silent, &stale) {
					return
				}
			case <-w.failed:
				return
			case <-c.ctx.Done():
				return
			}
			continue
		}
		select {
		case cl := <-c.submit:
			if !c.dispatch(w, cl, free) {
				return
			}
		case <-w.freed:
			// Recompute the window; a completion may also clear the
			// stale-worker shrink.
		case <-hb.C:
			if !c.heartbeat(w, &silent, &stale) {
				return
			}
		case <-w.failed:
			return
		case <-c.ctx.Done():
			return
		}
	}
}

// heartbeat runs one liveness tick: account the interval just ended, then
// ping. Returns false when the worker is declared dead.
func (c *Coordinator) heartbeat(w *workerProc, silent, stale *int) bool {
	inflight := w.inflight()
	if inflight > 0 && !w.heard.Swap(false) {
		*silent++
		if *silent >= c.opts.HeartbeatMisses {
			w.fail(fmt.Errorf("dist: worker %d silent for %d heartbeat intervals with %d jobs in flight", w.id, *silent, inflight))
			return false
		}
	} else {
		*silent = 0
	}
	if inflight > 0 && !w.completed.Swap(false) {
		*stale++
	} else {
		*stale = 0
	}
	line, err := EncodePing(c.seq.Add(1))
	if err == nil {
		_, err = w.stdin.Write(append(line, '\n'))
	}
	if err != nil {
		w.fail(fmt.Errorf("dist: pinging worker %d: %w", w.id, err))
		return false
	}
	return true
}

// dispatch sends the call (plus up to free-1 more already queued, coalesced
// into one batch frame) to the worker. Calls are tracked in the window
// before the write, so a write failure leaves them requeueable. Returns
// false when the worker is unusable.
func (c *Coordinator) dispatch(w *workerProc, first *call, free int) bool {
	calls := []*call{first}
gather:
	for len(calls) < free {
		select {
		case cl := <-c.submit:
			calls = append(calls, cl)
		default:
			break gather
		}
	}
	// Skip calls whose waiter already gave up; their RunJob has returned
	// and dispatching them would burn window on dead work.
	live := calls[:0]
	for _, cl := range calls {
		if err := cl.ctx.Err(); err != nil {
			cl.deliver(eval.Measurement{}, err)
			continue
		}
		live = append(live, cl)
	}
	if len(live) == 0 {
		return true
	}
	var line []byte
	var err error
	if len(live) == 1 {
		seq := c.seq.Add(1)
		live[0].attempts++
		w.track(seq, live[0])
		line, err = EncodeJobSpec(seq, live[0].spec)
	} else {
		jobs := make([]WireJob, len(live))
		for i, cl := range live {
			seq := c.seq.Add(1)
			cl.attempts++
			w.track(seq, cl)
			jobs[i] = WireJob{Seq: seq, Spec: cl.spec}
		}
		line, err = EncodeBatch(jobs)
		c.stats.batched.Add(uint64(len(live)))
		c.stats.batches.Add(1)
	}
	if err != nil {
		// Specs were trial-marshalled at submission, so this is effectively
		// unreachable; treat it as fatal for the worker's window rather
		// than guess which member poisoned the frame.
		w.fail(fmt.Errorf("dist: encoding dispatch for worker %d: %w", w.id, err))
		return false
	}
	if _, err := w.stdin.Write(append(line, '\n')); err != nil {
		w.fail(fmt.Errorf("dist: writing to worker %d: %w", w.id, err))
		return false
	}
	c.stats.dispatched.Add(uint64(len(live)))
	return true
}

// receive owns the worker's read side for the process's lifetime (one
// goroutine per worker, not per dispatch), matching every result frame to
// its outstanding call by seq and answering the sender's liveness
// accounting. It returns — after failing the worker — on read error,
// protocol violation, or an answer to a seq that is not outstanding.
func (c *Coordinator) receive(w *workerProc) {
	for {
		line, err := w.out.ReadBytes('\n')
		if err != nil {
			w.fail(fmt.Errorf("dist: worker %d died: %w", w.id, err))
			return
		}
		kind, err := SniffFrame(line)
		if err != nil {
			w.fail(fmt.Errorf("dist: worker %d: %w", w.id, err))
			return
		}
		w.heard.Store(true)
		switch kind {
		case KindPong:
			if _, _, err := DecodeHeartbeat(line); err != nil {
				w.fail(fmt.Errorf("dist: worker %d: %w", w.id, err))
				return
			}
		case KindResult:
			env, err := DecodeResult(line)
			if err != nil {
				w.fail(fmt.Errorf("dist: worker %d: %w", w.id, err))
				return
			}
			if !c.settle(w, env.Seq, env.Measurement, env.Err) {
				return
			}
		case KindResults:
			results, err := DecodeBatchResult(line)
			if err != nil {
				w.fail(fmt.Errorf("dist: worker %d: %w", w.id, err))
				return
			}
			for _, r := range results {
				if !c.settle(w, r.Seq, r.Measurement, r.Err) {
					return
				}
			}
		default:
			w.fail(fmt.Errorf("dist: worker %d sent unexpected %q frame", w.id, kind))
			return
		}
	}
}

// settle delivers one result to its outstanding call and frees its window
// slot. An answer to a seq that is not outstanding — a stale seq from a
// previous window, a duplicate, an invention — is a protocol violation:
// the worker's stream can no longer be trusted, so it is failed (false).
func (c *Coordinator) settle(w *workerProc, seq uint64, m *eval.Measurement, errText string) bool {
	cl, ok := w.take(seq)
	if !ok {
		w.fail(fmt.Errorf("dist: worker %d answered seq %d, which is not outstanding", w.id, seq))
		return false
	}
	w.completed.Store(true)
	if errText != "" {
		cl.deliver(eval.Measurement{}, errors.New(errText))
	} else {
		cl.deliver(*m, nil)
	}
	select {
	case w.freed <- struct{}{}:
	default:
	}
	return true
}

// RunJob implements eval.RemoteExecutor: the job is validated once, queued,
// dispatched into some worker's window, and its result awaited. Worker
// deaths retry the job elsewhere (bounded by MaxAttempts) without RunJob
// noticing; ctx cancellation abandons the job — the result, if the worker
// still produces one, is dropped on arrival — and returns ctx.Err().
func (c *Coordinator) RunJob(ctx context.Context, j eval.Job) (eval.Measurement, error) {
	spec, err := WireSpecOf(j)
	if err != nil {
		// Unencodable jobs fail like unresolvable ones in-process: a real
		// job error, no dispatch, no retry.
		return eval.Measurement{}, err
	}
	cl := &call{ctx: ctx, spec: spec, done: make(chan outcome, 1)}
	select {
	case c.submit <- cl:
	case <-ctx.Done():
		return eval.Measurement{}, ctx.Err()
	case <-c.ctx.Done():
		return eval.Measurement{}, c.closedErr()
	}
	select {
	case out := <-cl.done:
		return out.m, out.err
	case <-ctx.Done():
		return eval.Measurement{}, ctx.Err()
	case <-c.ctx.Done():
		// Prefer a result that raced the shutdown.
		select {
		case out := <-cl.done:
			return out.m, out.err
		default:
		}
		return eval.Measurement{}, c.closedErr()
	}
}

// closedErr is what RunJob reports on a shut-down coordinator: the
// fleet-lost cause when the shutdown was involuntary, errClosed after a
// plain Close.
func (c *Coordinator) closedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failErr != nil {
		return c.failErr
	}
	return errClosed
}

// shutdown marks the coordinator closed (recording cause, if any, for
// closedErr), cancels the lifecycle context, and hands back the workers to
// terminate. Idempotent: only the first call gets the worker list.
func (c *Coordinator) shutdown(cause error) []*workerProc {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.failErr = cause
	c.cancel()
	procs := make([]*workerProc, 0, len(c.procs))
	for w := range c.procs { //mussti:allow=determinism shutdown fan-out; kill order is irrelevant
		procs = append(procs, w)
	}
	c.procs = make(map[*workerProc]struct{})
	return procs
}

// failFleet shuts the coordinator down because the fleet is unrecoverable;
// workers are killed without grace.
func (c *Coordinator) failFleet(cause error) {
	for _, w := range c.shutdown(cause) {
		w.terminate(0)
	}
}

// closeGrace is how long Close waits for workers to exit on stdin EOF
// before killing them.
const closeGrace = 3 * time.Second

// Close shuts the fleet down: every worker's stdin closes (idle workers
// exit immediately on EOF), stragglers are killed after a short grace
// period, and all processes are reaped and all coordinator goroutines
// joined before Close returns — no orphans survive it. Close is idempotent
// and safe to call concurrently with RunJob, which then fails with a
// closed-coordinator error.
func (c *Coordinator) Close() error {
	procs := c.shutdown(nil)
	var wg sync.WaitGroup
	for _, w := range procs {
		wg.Add(1)
		go func(w *workerProc) {
			defer wg.Done()
			w.terminate(closeGrace)
		}(w)
	}
	wg.Wait()
	c.wg.Wait()
	return nil
}
