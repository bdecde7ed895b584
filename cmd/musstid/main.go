// Command musstid serves the MUSS-TI compiler over HTTP+JSON. Clients POST
// circuits — built-in paper benchmarks by name, or inline OpenQASM 2.0 — to
// /v1/compile and receive the compiled measurement, optionally as a stream
// of progress events (NDJSON, or SSE when the request Accepts
// text/event-stream). Identical concurrent requests coalesce onto one
// compile, -cachedir persists measurements across restarts and replicas,
// and -dist moves the compiles into a spawned worker fleet.
//
//	go run ./cmd/musstid -addr :8080
//	curl -s localhost:8080/v1/compile -d '{"app":"QFT_n32"}'
//	curl -sN localhost:8080/v1/compile -d '{"app":"SQRT_n45","stream":true}'
//	curl -s localhost:8080/metrics
//
// Admission control bounds the footprint: at most -maxinflight requests
// compile concurrently, -maxqueue wait behind them, and the rest get 429.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"mussti"
	"mussti/internal/runnerflags"
)

func main() { os.Exit(realMain()) }

// realMain is main with an exit code instead of os.Exit calls, so deferred
// cleanup (fleet teardown, graceful shutdown) always runs.
func realMain() int {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	rf := runnerflags.Register(flag.CommandLine)
	maxInFlight := flag.Int("maxinflight", 0, "concurrent compile bound (0 = the worker count)")
	maxQueue := flag.Int("maxqueue", 0, "requests allowed to wait for a compile slot before 429 (0 = 4×maxinflight)")
	streamEvery := flag.Duration("stream-interval", 0, "progress-event cadence for streamed responses (0 = 500ms)")
	flag.Parse()

	// Flag mistakes fail up front, before anything listens or compiles.
	if err := rf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "musstid:", err)
		return 2
	}
	if *maxInFlight < 0 || *maxQueue < 0 {
		fmt.Fprintln(os.Stderr, "musstid: -maxinflight and -maxqueue must be non-negative")
		return 2
	}

	// Worker mode: this process is one member of another musstid's -dist
	// fleet.
	if rf.Worker {
		if err := rf.ServeWorker(nil); err != nil {
			fmt.Fprintln(os.Stderr, "musstid: worker:", err)
			return 1
		}
		return 0
	}

	// With -dist, compiles dispatch to spawned copies of this binary in
	// worker mode; the service's scheduling, coalescing and metrics stay in
	// this process.
	runner, fleet, err := rf.NewRunner()
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstid:", err)
		return 1
	}
	if fleet != nil {
		defer fleet.Close()
	}

	svc, err := mussti.NewService(mussti.ServiceOptions{
		Runner:         runner,
		Fleet:          fleet,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		StreamInterval: *streamEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstid:", err)
		return 1
	}

	// Interrupt triggers a graceful drain: the listener closes, in-flight
	// requests get a grace period (their compiles continue), then the
	// server's base context cancellation aborts whatever is still running.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	srv := &http.Server{
		Addr:        *addr,
		Handler:     svc,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "musstid: listening on %s (workers=%d", *addr, runner.Workers())
		if n := rf.FleetSize(); n > 0 {
			fmt.Fprintf(os.Stderr, ", fleet=%d", n)
		}
		fmt.Fprintln(os.Stderr, ")")
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "musstid:", err)
		return 1
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "musstid: shutdown:", err)
		return 1
	}
	return 0
}
