package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// span is one timed call recorded by the benchmark around a layer
// boundary. Spans of one workload item share a trace id; Parent is 0 for a
// root. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layerOf is the layer a span name belongs to: the part before the first
// dot ("core.compile" → "core"), or the whole name for item spans.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; end closes it. A nil *active (from a nil tracer)
// is valid and does nothing.
type active struct {
	tr     *tracer
	id     int64
	parent int64
	trace  int64
	name   string
	start  int64
}

// start opens a span under parent (nil for a root).
func (t *tracer) start(parent *active, name string) *active {
	if t == nil {
		return nil
	}
	a := &active{tr: t, id: t.next.Add(1), name: name, start: int64(time.Since(t.t0))}
	a.trace = a.id
	if parent != nil {
		a.parent, a.trace = parent.id, parent.trace
	}
	return a
}

// startAt opens a span whose start lies in the past (an open-loop request
// is timed from when it was due).
func (t *tracer) startAt(parent *active, name string, at time.Time) *active {
	a := t.start(parent, name)
	if a != nil {
		a.start = int64(at.Sub(t.t0))
	}
	return a
}

func (a *active) end() {
	if a == nil {
		return
	}
	s := span{ID: a.id, Parent: a.parent, Trace: a.trace, Name: a.name, Start: a.start, End: int64(time.Since(a.tr.t0))}
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, s)
	a.tr.mu.Unlock()
}

// timed runs fn inside a span named name and returns fn's duration.
func (t *tracer) timed(parent *active, name string, fn func()) time.Duration {
	a := t.start(parent, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	a.end()
	return d
}

// snapshot returns the closed spans, ordered by start.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := slices.Clone(t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return out[i].Start < out[j].Start || out[i].Start == out[j].Start && out[i].ID < out[j].ID
	})
	return out
}

// durations of every closed span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// spanKey carries the open span through a context, for layer wrappers the
// benchmark hands to the program (the fleet's RemoteExecutor).
type spanKey struct{}

func withSpan(ctx context.Context, a *active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, a)
}

func spanFrom(ctx context.Context) *active {
	a, _ := ctx.Value(spanKey{}).(*active)
	return a
}

// writeTrace writes the stamp and the spans as JSON lines.
func writeTrace(path string, st stamp, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{"stamp": st})
	for _, s := range spans {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readTrace loads a file written by writeTrace.
func readTrace(path string) (stamp, []span, error) {
	f, err := os.Open(path)
	if err != nil {
		return stamp{}, nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var head struct{ Stamp stamp }
	if err := dec.Decode(&head); err != nil {
		return stamp{}, nil, fmt.Errorf("%s: header: %w", path, err)
	}
	var spans []span
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			return stamp{}, nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return head.Stamp, spans, nil
}

// checkTree reports the first way the spans fail to form a tree: a
// duplicate id, a missing parent, a child outside its trace, or a span
// ending before it starts.
func checkTree(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d appears twice", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.Trace != s.ID {
				return fmt.Errorf("root span %d (%s) has trace id %d", s.ID, s.Name, s.Trace)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Trace != s.Trace {
			return fmt.Errorf("span %d (%s) is in trace %d, its parent in %d", s.ID, s.Name, s.Trace, p.Trace)
		}
	}
	return nil
}

// selfTimes maps each span id to its duration minus the part of its
// interval covered by its children's intervals (overlapping children count
// once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerRow is one line of the trace summary.
type layerRow struct {
	layer string
	count int
	total time.Duration
	self  time.Duration
}

// summarize folds spans into per-layer rows, heaviest self time first, and
// returns the base the shares are taken against: the summed duration of
// the root spans.
func summarize(spans []span) ([]layerRow, time.Duration) {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	var base time.Duration
	for _, s := range spans {
		l := layerOf(s.Name)
		r := rows[l]
		if r == nil {
			r = &layerRow{layer: l}
			rows[l] = r
		}
		r.count++
		r.total += s.dur()
		r.self += self[s.ID]
		if s.Parent == 0 {
			base += s.dur()
		}
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].self > out[j].self || out[i].self == out[j].self && out[i].layer < out[j].layer
	})
	return out, base
}

// printSummary writes the per-layer table: span count, total and self
// time, and self time as a share of the root spans' summed time.
func printSummary(w io.Writer, st stamp, spans []span) {
	rows, base := summarize(spans)
	fmt.Fprintf(w, "trace: workload %s, seed %d, commit %s, %s, num_cpu %d, GOMAXPROCS %d\n",
		st.Workload, st.Seed, st.Commit, st.GoVersion, st.NumCPU, st.GOMAXPROCS)
	fmt.Fprintf(w, "%d spans; shares are self time over the root spans' summed time (%s);\n"+
		"spans that run concurrently overlap, so shares can sum past 1\n",
		len(spans), base.Round(time.Microsecond))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tspans\ttotal\tself\tself share\tmean self\t")
	for _, r := range rows {
		share := 0.0
		if base > 0 {
			share = float64(r.self) / float64(base)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%.4f\t%s\t\n", r.layer, r.count,
			r.total.Round(time.Microsecond), r.self.Round(time.Microsecond), share,
			(r.self / time.Duration(max(r.count, 1))).Round(time.Microsecond))
	}
	tw.Flush()
}

func summarizeMain(path string) int {
	st, spans, err := readTrace(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstibench:", err)
		return 1
	}
	if err := checkTree(spans); err != nil {
		fmt.Fprintln(os.Stderr, "musstibench: malformed trace:", err)
		return 1
	}
	printSummary(os.Stdout, st, spans)
	return 0
}
