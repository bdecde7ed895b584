package dist

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"

	"mussti/internal/eval"
)

// maxEnvelopeBytes bounds one protocol line. Envelopes are small (a spec is
// a few hundred bytes; a coalesced batch a few kilobytes), so the bound only
// guards against a corrupted stream convincing the scanner to buffer
// without limit.
const maxEnvelopeBytes = 8 << 20

// lineWriter serializes frame writes to the protocol stream: the read loop
// answers pings while the main loop writes results, and interleaving two
// half-written frames would corrupt the wire.
type lineWriter struct {
	mu  sync.Mutex
	out *bufio.Writer
}

func (lw *lineWriter) writeLine(line []byte) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if _, err := lw.out.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("dist: worker writing frame: %w", err)
	}
	if err := lw.out.Flush(); err != nil {
		return fmt.Errorf("dist: worker writing frame: %w", err)
	}
	return nil
}

// frame is one decoded unit of work handed from the read loop to the
// executor: a single job or a coalesced batch.
type frame struct {
	seqs  []uint64
	jobs  []eval.Job
	batch bool
}

// ServeWorker runs the worker side of the protocol: it reads frames line by
// line from r, executes job frames through the runner — the exact path the
// in-process pool drives, so context cancellation, observer ticks and
// memoization (including a shared on-disk cache attached to the runner) all
// apply — and writes result frames to w. Real job failures travel back
// inside result envelopes; ServeWorker itself returns only on r's EOF
// (nil), ctx cancellation, or a broken protocol stream (non-nil error — the
// coordinator treats the process death as a transport failure and reassigns
// the window).
//
// The read side runs in its own goroutine so heartbeat pings are answered
// immediately, even mid-compile — that is what lets the coordinator tell a
// slow compile (pongs flow, results don't) from a hung or dead worker
// (silence). The frame channel is buffered well past any sane pipeline
// window so a queued job never blocks the reader off stdin — otherwise a
// compile outlasting the heartbeat deadline would strand unread pings in
// the pipe behind the next job frame and get a live worker reaped as
// silent. Jobs still execute strictly in arrival order, one frame at a
// time, and a batch frame's members run in order through Runner.RunJobs,
// so the protocol needs no interleaving rules.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, runner *eval.Runner) error {
	lw := &lineWriter{out: bufio.NewWriter(w)}
	frames := make(chan frame, 256)
	readErr := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(frames)
		readErr <- readFrames(ctx, r, lw, frames, stop)
	}()
	for {
		select {
		case f, ok := <-frames:
			if !ok {
				return <-readErr
			}
			if err := serveFrame(ctx, lw, runner, f); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// readFrames owns the read side: it decodes every incoming line, answers
// pings inline, and hands job/batch frames to the executor. It returns on
// EOF (nil), a broken stream, or when the executor stops listening.
func readFrames(ctx context.Context, r io.Reader, lw *lineWriter, frames chan<- frame, stop <-chan struct{}) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxEnvelopeBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		kind, err := SniffFrame(line)
		if err != nil {
			// The stream itself is broken (a half-written line from a dying
			// coordinator, version skew): abort rather than guess at what
			// the peer meant.
			return err
		}
		var f frame
		switch kind {
		case KindPing:
			_, seq, err := DecodeHeartbeat(line)
			if err != nil {
				return err
			}
			pong, err := EncodePong(seq)
			if err != nil {
				return err
			}
			if err := lw.writeLine(pong); err != nil {
				return err
			}
			continue
		case KindJob:
			seq, job, err := DecodeJob(line)
			if err != nil {
				return err
			}
			f = frame{seqs: []uint64{seq}, jobs: []eval.Job{job}}
		case KindBatch:
			seqs, jobs, err := DecodeBatch(line)
			if err != nil {
				return err
			}
			f = frame{seqs: seqs, jobs: jobs, batch: true}
		default:
			return fmt.Errorf("dist: worker received unexpected %q frame", kind)
		}
		select {
		case frames <- f:
		case <-stop:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dist: worker reading jobs: %w", err)
	}
	return nil
}

// serveFrame executes one frame and writes its result frame. Single jobs
// answer with a result envelope, batches with one results envelope carrying
// every member — the member order matches the request, but the coordinator
// matches by seq so it would not need to care.
func serveFrame(ctx context.Context, lw *lineWriter, runner *eval.Runner, f frame) error {
	if !f.batch {
		m, jobErr := runner.RunJob(ctx, f.jobs[0])
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := EncodeResult(f.seqs[0], m, jobErr)
		if err != nil {
			return err
		}
		return lw.writeLine(resp)
	}
	ms, errs := runner.RunJobs(ctx, f.jobs)
	if err := ctx.Err(); err != nil {
		return err
	}
	results := make([]WireResult, len(f.seqs))
	for i, seq := range f.seqs {
		results[i] = NewWireResult(seq, ms[i], errs[i])
	}
	resp, err := EncodeBatchResult(results)
	if err != nil {
		return err
	}
	return lw.writeLine(resp)
}
