package dag

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mussti/internal/circuit"
)

// naiveFrontier recomputes the executable set from scratch: unexecuted
// nodes whose predecessors have all executed, in ascending ID order — the
// specification the incremental sorted frontier must match.
func naiveFrontier(g *Graph) []int {
	var out []int
	for _, n := range g.Nodes {
		if g.Executed(n.ID) {
			continue
		}
		ready := true
		for _, p := range n.Pred {
			if !g.Executed(p) {
				ready = false
				break
			}
		}
		if ready {
			out = append(out, n.ID)
		}
	}
	return out
}

// naiveWalkAhead is the reference look-ahead: a full ascending-ID scan over
// all unexecuted nodes computing each one's remaining layer (longest path
// through unexecuted predecessors), visiting those with layer < k. This is
// the pre-watermark implementation the windowed traversal replaced.
func naiveWalkAhead(g *Graph, k int, visit func(layer int, n *Node)) {
	if k <= 0 {
		return
	}
	depth := make(map[int]int)
	for id := range g.Nodes {
		if g.Executed(id) {
			continue
		}
		d := 0
		for _, p := range g.Nodes[id].Pred {
			if g.Executed(p) {
				continue
			}
			if pd, ok := depth[p]; ok && pd+1 > d {
				d = pd + 1
			}
		}
		depth[id] = d
		if d < k {
			visit(d, &g.Nodes[id])
		}
	}
}

type visitRec struct{ layer, id int }

func collectWalk(walk func(int, func(int, *Node)), k int) []visitRec {
	var out []visitRec
	walk(k, func(layer int, n *Node) { out = append(out, visitRec{layer, n.ID}) })
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertyIncrementalMatchesNaive drains randomly generated circuits in
// random executable order and checks, at every step, that the incremental
// frontier, the watermark and the windowed WalkAhead agree exactly (same
// nodes, same layers, same visit order) with recompute-from-scratch
// references — the correctness contract behind ISSUE 4's hot-path rework.
func TestPropertyIncrementalMatchesNaive(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		c := randomCircuit(seed, 8, 80)
		g := Build(c)
		rng := rand.New(rand.NewSource(int64(pick)))
		for {
			fr := append([]int(nil), g.Frontier()...)
			if !equalInts(fr, naiveFrontier(g)) {
				t.Logf("seed %d: frontier %v, naive %v", seed, fr, naiveFrontier(g))
				return false
			}
			wantMark := len(g.Nodes)
			for id := range g.Nodes {
				if !g.Executed(id) {
					wantMark = id
					break
				}
			}
			if g.FirstUnexecuted() != wantMark {
				t.Logf("seed %d: watermark %d, want %d", seed, g.FirstUnexecuted(), wantMark)
				return false
			}
			for _, k := range []int{1, 2, 3, 8, math.MaxInt32} {
				got := collectWalk(g.WalkAhead, k)
				want := collectWalk(func(k int, v func(int, *Node)) { naiveWalkAhead(g, k, v) }, k)
				if len(got) != len(want) {
					t.Logf("seed %d k=%d: %d visits, want %d", seed, k, len(got), len(want))
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						t.Logf("seed %d k=%d visit %d: %+v, want %+v", seed, k, i, got[i], want[i])
						return false
					}
				}
			}
			if g.Done() {
				return g.FirstUnexecuted() == len(g.Nodes)
			}
			g.Execute(fr[rng.Intn(len(fr))])
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalSurvivesReset pins that Reset restores the incremental
// structures exactly (the SABRE two-fold search replays graphs).
func TestIncrementalSurvivesReset(t *testing.T) {
	c := randomCircuit(42, 6, 50)
	g := Build(c)
	before := append([]int(nil), g.Frontier()...)
	walkBefore := collectWalk(g.WalkAhead, 4)
	for i := 0; i < 10 && !g.Done(); i++ {
		g.Execute(g.Frontier()[0])
	}
	g.Reset()
	if !equalInts(append([]int(nil), g.Frontier()...), before) {
		t.Errorf("frontier after reset = %v, want %v", g.Frontier(), before)
	}
	after := collectWalk(g.WalkAhead, 4)
	if len(after) != len(walkBefore) {
		t.Fatalf("walk after reset visited %d nodes, want %d", len(after), len(walkBefore))
	}
	for i := range after {
		if after[i] != walkBefore[i] {
			t.Errorf("walk visit %d = %+v, want %+v", i, after[i], walkBefore[i])
		}
	}
	if g.FirstUnexecuted() != 0 {
		t.Errorf("watermark after reset = %d, want 0", g.FirstUnexecuted())
	}
}

// naiveQubitWindow is the reference for QubitWindow: the visits of a
// naiveWalkAhead, filtered to the nodes that touch any of qs.
func naiveQubitWindow(g *Graph, walk []visitRec, qs ...int) []visitRec {
	var out []visitRec
	for _, v := range walk {
		for _, q := range qs {
			if g.Nodes[v.id].Gate.Touches(q) {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// qubitWindowRecs reads QubitWindow(q, k) with each member's WindowLayer.
func qubitWindowRecs(g *Graph, q, k int) []visitRec {
	var out []visitRec
	for _, id := range g.QubitWindow(q, k) {
		out = append(out, visitRec{g.WindowLayer(id), id})
	}
	return out
}

// pairWindowRecs merges the windows of a and b in ascending ID order,
// visiting a gate on both once — the pair query the §3.2 routing look-ahead
// makes.
func pairWindowRecs(g *Graph, a, b, k int) []visitRec {
	wa, wb := qubitWindowRecs(g, a, k), qubitWindowRecs(g, b, k)
	var out []visitRec
	for len(wa) > 0 || len(wb) > 0 {
		switch {
		case len(wb) == 0 || len(wa) > 0 && wa[0].id < wb[0].id:
			out, wa = append(out, wa[0]), wa[1:]
		case len(wa) == 0 || wb[0].id < wa[0].id:
			out, wb = append(out, wb[0]), wb[1:]
		default:
			out, wa, wb = append(out, wa[0]), wa[1:], wb[1:]
		}
	}
	return out
}

func equalRecs(a, b []visitRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkQubitWindows compares every qubit's window and every adjacent pair's
// merged window, for each k in ks, against the naive reference. Each k is
// queried twice in a row, so the second pass is served from the layer memo.
func checkQubitWindows(t *testing.T, g *Graph, ks []int) bool {
	t.Helper()
	nq := len(g.ByQubit)
	for _, k := range ks {
		walk := collectWalk(func(k int, v func(int, *Node)) { naiveWalkAhead(g, k, v) }, k)
		for pass := 0; pass < 2; pass++ {
			for q := 0; q < nq; q++ {
				if got, want := qubitWindowRecs(g, q, k), naiveQubitWindow(g, walk, q); !equalRecs(got, want) {
					t.Logf("k=%d q=%d pass %d: window %v, want %v", k, q, pass, got, want)
					return false
				}
				b := (q + 1) % nq
				if got, want := pairWindowRecs(g, q, b, k), naiveQubitWindow(g, walk, q, b); !equalRecs(got, want) {
					t.Logf("k=%d pair (%d,%d) pass %d: window %v, want %v", k, q, b, pass, got, want)
					return false
				}
			}
		}
	}
	return true
}

// windowKs runs k = 1..12 after a query at k = 12, the k the previous
// check ended on: the first query after an Execute then meets a memo that
// was valid for the same k before it, which is the invalidation case. The
// rising ks that follow ask past the lower bounds the smaller ones leave.
var windowKs = []int{12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

// TestPropertyQubitWindowMatchesNaive drains random circuits in random
// executable order and checks, at every step, that the per-qubit window
// query agrees with the naive whole-graph walk filtered to the qubit or the
// pair: same nodes, same layers, same order.
func TestPropertyQubitWindowMatchesNaive(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		g := Build(randomCircuit(seed, 8, 80))
		rng := rand.New(rand.NewSource(int64(pick)))
		for {
			if !checkQubitWindows(t, g, windowKs) {
				t.Logf("seed %d pick %d, %d nodes left", seed, pick, g.Remaining())
				return false
			}
			if g.Done() {
				return true
			}
			fr := g.Frontier()
			g.Execute(fr[rng.Intn(len(fr))])
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQubitWindowAfterResetAndClone pins that Reset and Clone leave no
// stale window behind: layers memoized mid-drain must not answer for the
// reset graph, and a clone answers for its own (unexecuted) state while the
// original keeps answering for its own.
func TestQubitWindowAfterResetAndClone(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := Build(randomCircuit(seed, 8, 80))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 25 && !g.Done(); i++ {
			fr := g.Frontier()
			g.Execute(fr[rng.Intn(len(fr))])
		}
		if !checkQubitWindows(t, g, windowKs) {
			t.Fatalf("seed %d: mid-drain windows disagree", seed)
		}
		c := g.Clone()
		if !checkQubitWindows(t, c, windowKs) {
			t.Fatalf("seed %d: clone windows disagree", seed)
		}
		for i := 0; i < 10 && !c.Done(); i++ {
			fr := c.Frontier()
			c.Execute(fr[rng.Intn(len(fr))])
			if !checkQubitWindows(t, c, windowKs) || !checkQubitWindows(t, g, windowKs) {
				t.Fatalf("seed %d: windows disagree while the clone drains", seed)
			}
		}
		g.Reset()
		if !checkQubitWindows(t, g, windowKs) {
			t.Fatalf("seed %d: windows disagree after Reset", seed)
		}
	}
}

// TestQubitWindowZeroWindow pins that k <= 0 is an empty window.
func TestQubitWindowZeroWindow(t *testing.T) {
	g := Build(chainCircuit(4))
	if w := g.QubitWindow(0, 0); len(w) != 0 {
		t.Errorf("k=0 window = %v, want empty", w)
	}
}

// checkWalkAhead compares WalkAhead(k) with the naive reference.
func checkWalkAhead(t *testing.T, g *Graph, k int) bool {
	t.Helper()
	got := collectWalk(g.WalkAhead, k)
	want := collectWalk(func(k int, v func(int, *Node)) { naiveWalkAhead(g, k, v) }, k)
	if !equalRecs(got, want) {
		t.Logf("WalkAhead(%d) = %v, want %v", k, got, want)
		return false
	}
	return true
}

// TestWalkAheadInterleavedWithQubitWindow drains random circuits and, at
// every step, runs WalkAhead and the per-qubit queries on the same state in
// both orders, at different ks. WalkAhead must not be served from the
// memo the queries left, and must leave none that misleads them.
func TestWalkAheadInterleavedWithQubitWindow(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := Build(randomCircuit(seed, 8, 80))
		rng := rand.New(rand.NewSource(seed))
		for step := 0; ; step++ {
			walkK, winK := 1+rng.Intn(10), 1+rng.Intn(10)
			var ok bool
			if step%2 == 0 {
				ok = checkWalkAhead(t, g, walkK) && checkQubitWindows(t, g, []int{winK}) && checkWalkAhead(t, g, winK)
			} else {
				ok = checkQubitWindows(t, g, []int{winK}) && checkWalkAhead(t, g, walkK) && checkQubitWindows(t, g, []int{walkK})
			}
			if !ok {
				t.Fatalf("seed %d step %d (walk k=%d, window k=%d): disagree", seed, step, walkK, winK)
			}
			if g.Done() {
				break
			}
			fr := g.Frontier()
			g.Execute(fr[rng.Intn(len(fr))])
		}
	}
}

// TestQubitWindowEpochWrap drains a graph across the wrap of the memo's
// epoch counter. The first query stamps every node with the first epoch,
// which the counter meets again after it wraps; the graph changes in
// between, so a stamp left from before the wrap must not pass for a
// current one.
func TestQubitWindowEpochWrap(t *testing.T) {
	g := Build(randomCircuit(7, 8, 80))
	if !checkQubitWindows(t, g, []int{math.MaxInt}) {
		t.Fatal("windows disagree before the wrap")
	}
	first := g.waGen
	g.waGen = math.MaxUint32 - 3
	rng := rand.New(rand.NewSource(7))
	for !g.Done() {
		fr := g.Frontier()
		g.Execute(fr[rng.Intn(len(fr))])
		if g.waGen > math.MaxUint32-3 {
			continue // not wrapped yet: leave the first epoch's stamps alone
		}
		if !checkQubitWindows(t, g, windowKs) || !checkWalkAhead(t, g, 4) {
			t.Fatalf("windows disagree at epoch %d, %d nodes left", g.waGen, g.Remaining())
		}
	}
	if g.waGen < first || g.waGen > math.MaxUint32-3 {
		t.Fatalf("epoch %d after the drain: the counter never wrapped back past %d", g.waGen, first)
	}
}

// TestQubitWindowDeepDAG queries DAGs far deeper than any look-ahead window
// with k far beyond their depth, up to math.MaxInt: a long chain on two
// qubits, then one gate touching a third, and a brick ladder whose number
// of paths to a node grows like the Fibonacci numbers, so an unmemoized
// walk could not finish. Each query must match the naive reference.
func TestQubitWindowDeepDAG(t *testing.T) {
	const depth = 3000
	chain := circuit.New("deep-chain", 3)
	for i := 0; i < depth; i++ {
		chain.MS(0, 1)
	}
	chain.MS(1, 2)
	ladder := circuit.New("ladder", 3)
	for i := 0; i < depth; i++ {
		ladder.MS(i%2, i%2+1)
	}
	ks := []int{depth / 2, depth + 5, math.MaxInt32, math.MaxInt}
	// WalkAhead's k stays small on the ladder: there, a walk that enqueued
	// a node once per predecessor would grow its queue like the Fibonacci
	// numbers, and a small k makes that fail fast instead of filling memory.
	for _, tc := range []struct {
		c     *circuit.Circuit
		walkK int
	}{{chain, math.MaxInt}, {ladder, 16}} {
		g := Build(tc.c)
		// Query the far end first, so its walk runs on a cold memo.
		if got := g.QubitWindow(2, math.MaxInt); len(got) == 0 {
			t.Fatalf("%s: qubit 2 window is empty at k = MaxInt", tc.c.Name)
		}
		for step := 0; step < 3; step++ {
			if !checkQubitWindows(t, g, ks) || !checkWalkAhead(t, g, tc.walkK) {
				t.Fatalf("%s step %d: windows disagree", tc.c.Name, step)
			}
			g.Execute(g.Frontier()[0])
		}
	}
}

// FuzzQubitWindow checks every qubit's window against the naive reference
// on fuzzed input: gates gives a circuit on 2 + nq%7 qubits (one two-qubit
// gate per byte pair, a partner equal to the first operand dropped), order
// picks the frontier node each Execute runs, and ks gives the window sizes
// queried at every step (byte 255 asks for k = math.MaxInt).
func FuzzQubitWindow(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 3, 0, 3, 1, 3}, []byte{0, 1, 2}, []byte{1, 2, 3})
	f.Add(uint8(3), []byte{0, 1, 1, 2, 0, 1, 1, 2, 0, 2, 3, 4, 4, 0}, []byte{5, 3}, []byte{255, 1, 8})
	f.Add(uint8(0), []byte{0, 1, 0, 1, 0, 1, 0, 1}, []byte{}, []byte{2, 4})
	f.Fuzz(func(t *testing.T, nq uint8, gates, order, ks []byte) {
		n := 2 + int(nq%7)
		c := circuit.New("fuzz", n)
		for i := 0; i+1 < len(gates) && i < 256; i += 2 {
			if a, b := int(gates[i])%n, int(gates[i+1])%n; a != b {
				c.MS(a, b)
			}
		}
		var windows []int
		for _, b := range ks[:min(len(ks), 4)] {
			k := int(b % 16)
			if b == 255 {
				k = math.MaxInt
			}
			windows = append(windows, k)
		}
		g := Build(c)
		for step := 0; ; step++ {
			if !checkQubitWindows(t, g, windows) {
				t.Fatalf("step %d: windows disagree", step)
			}
			if g.Done() {
				return
			}
			fr := g.Frontier()
			pick := 0
			if len(order) > 0 {
				pick = int(order[step%len(order)]) % len(fr)
			}
			g.Execute(fr[pick])
		}
	})
}
