package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mussti/internal/circuit/bench"
	"mussti/internal/eval"
)

// paper-eval: the researcher's path. One pass runs all twelve experiments
// the way `cmd/experiments` all-mode does with default flags — one shared
// Runner with NumCPU workers, memo and batching on — in a fresh process, so
// circuit generation and the process-wide circuit cache start cold as they
// do for the CLI. The seed sets the orders experiments are submitted in.

// paperExpLimit is the latency limit an experiment's table must be ready
// within, counted by slo_ok_ratio.
const paperExpLimit = 20 * time.Second

// digestFile pins the rendered tables: one SHA-256 per experiment over its
// output with the wall-clock cells of fig10/fig11 masked. Regenerate it
// only deliberately, with -write-digest.
//
//go:embed digest.json
var digestFile []byte

// paperOrder is the seeded submission order of a run's pass. Each pass
// of a run takes its own order, so a run's median averages over several
// orders instead of resting on one.
func paperOrder(seed uint64, pass int) []string {
	order := append([]string(nil), experimentIDs...)
	rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(pass)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// paperPass is one evaluation pass's report, as a pass process prints it.
type paperPass struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	RSSMB      float64            `json:"rss_mb"`
	DoneS      map[string]float64 `json:"done_s"`
	CompileMS  []float64          `json:"compile_ms"`
	Digests    map[string]string  `json:"digests"`
	Errors     map[string]string  `json:"errors"`
	Jobs       int                `json:"jobs"`
	MemoHits   int64              `json:"memo_hits"`
	MemoMisses int64              `json:"memo_misses"`
}

// paperSetup does what stands between a fresh process and the first
// measurement: plan every experiment, generate every circuit the plans
// name, and build the runner.
func paperSetup(order []string) ([]eval.Experiment, []*eval.Plan, *eval.Runner, error) {
	exps := make([]eval.Experiment, len(order))
	plans := make([]*eval.Plan, len(order))
	apps := map[string]bool{}
	for i, id := range order {
		e, err := eval.ByID(id)
		if err != nil {
			return nil, nil, nil, err
		}
		p, err := e.Plan()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: plan: %w", id, err)
		}
		exps[i], plans[i] = e, p
		for _, j := range p.Jobs {
			s, err := j.Resolve()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s: %w", id, err)
			}
			apps[s.App] = true
		}
	}
	for _, app := range sortedKeys(apps) {
		if _, err := bench.ByName(app); err != nil {
			return nil, nil, nil, err
		}
	}
	return exps, plans, eval.NewRunner(runtime.NumCPU()), nil
}

// runPaperPass runs one pass in this process. With a tracer, each
// experiment is a span under parent.
func runPaperPass(ctx context.Context, order []string, tr *tracer, parent *active) (paperPass, error) {
	t0 := time.Now()
	exps, plans, runner, err := paperSetup(order)
	if err != nil {
		return paperPass{}, err
	}
	pp := paperPass{SetupS: time.Since(t0).Seconds(), DoneS: map[string]float64{},
		Digests: map[string]string{}, Errors: map[string]string{}}
	type res struct {
		out  string
		rows []eval.Measurement
		err  error
		done time.Duration
	}
	results := make([]res, len(exps))
	start := time.Now()
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.start(parent, "eval.experiment")
			out, rows, err := e.CollectContext(ctx, runner)
			sp.end()
			results[i] = res{out, rows, err, time.Since(start)}
		}()
	}
	wg.Wait()
	pp.WallS = time.Since(start).Seconds()
	pp.RSSMB = peakRSSMB()
	seen := map[string]bool{}
	for i, r := range results {
		id := order[i]
		pp.Jobs += len(plans[i].Jobs)
		if r.err != nil {
			pp.Errors[id] = r.err.Error()
			continue
		}
		pp.DoneS[id] = r.done.Seconds()
		pp.Digests[id] = tableDigest(id, r.out)
		if len(r.rows) != len(plans[i].Jobs) {
			continue
		}
		for k, j := range plans[i].Jobs {
			s, _ := j.Resolve()
			if key, ok := s.CacheKey(); ok && !seen[key] {
				seen[key] = true
				pp.CompileMS = append(pp.CompileMS, ms(r.rows[k].CompileTime))
			}
		}
	}
	pp.MemoHits, pp.MemoMisses = runner.CacheStats()
	return pp, nil
}

// paperPassMain is the pass process: "run" runs a whole pass, "setup" only
// its set-up; either prints the report as one JSON line.
func paperPassMain(ctx context.Context, mode, order string) int {
	ids := strings.Split(order, ",")
	var (
		pp  paperPass
		err error
	)
	switch mode {
	case "run":
		pp, err = runPaperPass(ctx, ids, nil, nil)
	case "setup":
		t0 := time.Now()
		_, _, _, err = paperSetup(ids)
		pp.SetupS = time.Since(t0).Seconds()
	default:
		err = fmt.Errorf("-pass wants run or setup, got %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstibench: pass:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(pp); err != nil {
		fmt.Fprintln(os.Stderr, "musstibench: pass:", err)
		return 1
	}
	return 0
}

// spawnPass runs one pass in a fresh child process.
func spawnPass(ctx context.Context, mode string, order []string) (paperPass, error) {
	exe, err := os.Executable()
	if err != nil {
		return paperPass{}, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "-pass", mode, "-order", strings.Join(order, ","))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return paperPass{}, fmt.Errorf("pass process: %w", err)
	}
	var pp paperPass
	if err := json.Unmarshal(out.Bytes(), &pp); err != nil {
		return paperPass{}, fmt.Errorf("pass process output: %w", err)
	}
	return pp, nil
}

// minSetups is how many set-ups the serve-mixed and fleet-sweep setup_s
// take their median over.
const minSetups = 11

// setupsPerPass is how many set-up-only processes paper-eval runs after
// each pass. A set-up is about 10 ms, so one run's median of setup_s rests
// on some fifty of them, spread over the whole run rather than bunched at
// its end, so that it follows the host's state as eval_wall_s does.
const setupsPerPass = 10

func runPaperEval(ctx context.Context, rc runConfig, tr *tracer) (*outcome, error) {
	want, err := committedDigests()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		return tracedPaperEval(ctx, paperOrder(rc.seed, 0), want, tr)
	}
	var (
		passes []paperPass
		setups []float64
	)
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < rc.dur {
		order := paperOrder(rc.seed, len(passes))
		pp, err := spawnPass(ctx, "run", order)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "musstibench: pass %d: %.3f s (%s)\n", len(passes), pp.WallS, strings.Join(order, ","))
		passes = append(passes, pp)
		setups = append(setups, pp.SetupS)
		for range setupsPerPass {
			sp, err := spawnPass(ctx, "setup", order)
			if err != nil {
				return nil, err
			}
			setups = append(setups, sp.SetupS)
		}
	}

	o := &outcome{}
	var walls, rss, done, compiled, rates []float64
	within := 0
	for _, pp := range passes {
		checkPass(o, pp, want)
		walls = append(walls, pp.WallS)
		rss = append(rss, pp.RSSMB)
		rates = append(rates, float64(pp.Jobs)/pp.WallS)
		for _, id := range sortedKeys(pp.DoneS) {
			d := pp.DoneS[id]
			done = append(done, d*1000)
			if time.Duration(d*float64(time.Second)) <= paperExpLimit && pp.Digests[id] == want[id] {
				within++
			}
		}
		compiled = append(compiled, pp.CompileMS...)
	}
	o.e2e = map[string]float64{
		"setup_s":         median(setups),
		"eval_wall_s":     median(walls),
		"peak_rss_mb":     median(rss),
		"req_p50_ms":      quantile(done, 0.5),
		"req_p99_ms":      quantile(done, 0.99),
		"compiled_p50_ms": quantile(compiled, 0.5),
		"compiled_p90_ms": quantile(compiled, 0.9),
		"slo_ok_ratio":    float64(within) / float64(o.attempted),
		"jobs_per_s":      median(rates),
	}
	return o, nil
}

// checkPass counts one pass's experiments against the correctness gate:
// each must finish and render tables matching the committed digest.
func checkPass(o *outcome, pp paperPass, want map[string]string) {
	for _, id := range experimentIDs {
		o.attempted++
		switch {
		case pp.Errors[id] != "":
			o.fail("%s: %s", id, pp.Errors[id])
		case pp.Digests[id] != want[id]:
			o.fail("%s: rendered tables digest %s, committed %s", id, pp.Digests[id], want[id])
		}
	}
}

// tracedPaperEval runs one untraced and one traced pass in this process;
// the traced one gives the runner's counts and the overhead ratio.
func tracedPaperEval(ctx context.Context, order []string, want map[string]string, tr *tracer) (*outcome, error) {
	ref, err := runPaperPass(ctx, order, nil, nil)
	if err != nil {
		return nil, err
	}
	root := tr.start(nil, "workload.paper-eval")
	pp, err := runPaperPass(ctx, order, tr, root)
	root.end()
	if err != nil {
		return nil, err
	}
	o := &outcome{headline: pp.WallS / ref.WallS}
	checkPass(o, pp, want)
	total := pp.MemoHits + pp.MemoMisses
	o.layer = map[string]float64{
		"eval.jobs":           float64(pp.Jobs),
		"eval.memo_hits":      float64(pp.MemoHits),
		"eval.memo_misses":    float64(pp.MemoMisses),
		"eval.memo_hit_ratio": float64(pp.MemoHits) / float64(max(total, 1)),
	}
	return o, nil
}

// tableDigest hashes an experiment's rendered tables. In fig10 and fig11
// the columns that hold wall-clock compile times are masked by position,
// never by the shape of a number, so a fidelity cell that looks like a time
// still counts.
func tableDigest(id, out string) string {
	switch id {
	case "fig10":
		out = maskTables(out, func(header string) bool { return header != "Family" })
	case "fig11":
		out = maskTables(out, func(header string) bool { return header == "CompileTime(s)" })
	}
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}

// headerCell matches one column header of a rendered table: header names
// hold at most single spaces, and columns are two or more spaces apart.
var headerCell = regexp.MustCompile(`\S+( \S+)*`)

// maskTables rewrites every table in out (a header line, a rule of dashes,
// then rows up to a blank line) as its cells trimmed and joined by "|",
// with every cell of a column masked(header) selects replaced by "#".
// Column widths follow the widest cell, so the padding and the rule length
// are dropped too; the other lines are kept as they are.
func maskTables(out string, masked func(header string) bool) string {
	lines := strings.Split(out, "\n")
	var (
		starts []int // first byte of each column of the current table
		mask   []bool
	)
	for i, l := range lines {
		switch {
		case isRule(l):
			lines[i] = "-"
		case l != "" && i+1 < len(lines) && isRule(lines[i+1]):
			starts, mask = nil, nil
			for _, loc := range headerCell.FindAllStringIndex(l, -1) {
				starts = append(starts, loc[0])
				mask = append(mask, masked(l[loc[0]:loc[1]]))
			}
			lines[i] = joinCells(l, starts, nil)
		case l == "":
			starts = nil
		case starts != nil:
			lines[i] = joinCells(l, starts, mask)
		}
	}
	return strings.Join(lines, "\n")
}

func isRule(l string) bool { return l != "" && strings.Trim(l, "-") == "" }

// joinCells cuts a table line at the column starts and joins the trimmed
// cells with "|", masking the cells whose mask entry is set.
func joinCells(l string, starts []int, mask []bool) string {
	cells := make([]string, len(starts))
	for k, from := range starts {
		to := len(l)
		if k+1 < len(starts) {
			to = min(starts[k+1], len(l))
		}
		if from < to {
			cells[k] = strings.TrimSpace(l[from:to])
		}
		if mask != nil && mask[k] {
			cells[k] = "#"
		}
	}
	return strings.Join(cells, "|")
}

func committedDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestFile, &d); err != nil {
		return nil, fmt.Errorf("digest.json: %w", err)
	}
	for _, id := range experimentIDs {
		if d[id] == "" {
			return nil, fmt.Errorf("digest.json has no digest for %s", id)
		}
	}
	return d, nil
}

// writeDigestMain regenerates digest.json (relative to the repository
// root) from one pass.
func writeDigestMain(ctx context.Context) int {
	pp, err := runPaperPass(ctx, experimentIDs, nil, nil)
	if err == nil && len(pp.Errors) > 0 {
		err = fmt.Errorf("experiments failed: %v", pp.Errors)
	}
	var b []byte
	if err == nil {
		b, err = json.MarshalIndent(pp.Digests, "", "  ")
	}
	if err == nil {
		err = os.WriteFile("e2ebench/digest.json", append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstibench: -write-digest:", err)
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
