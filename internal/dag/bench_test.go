package dag

import "testing"

// benchCircuit is the shared workload of the dag microbenchmarks: a dense
// pseudo-random 64-qubit, 2000-gate circuit, large enough that per-step
// costs dominate over fixed overheads.
func benchGraph(seed int64) *Graph {
	return Build(randomCircuit(seed, 64, 2000))
}

// BenchmarkExecuteDrain measures the frontier hot loop of every scheduler:
// Reset, then repeatedly read the frontier and execute its oldest node until
// the graph drains. One op is one full drain (~1500 Execute+Frontier pairs).
func BenchmarkExecuteDrain(b *testing.B) {
	g := benchGraph(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		for !g.Done() {
			g.Execute(g.Frontier()[0])
		}
	}
}

// BenchmarkFrontier measures a single frontier read mid-drain.
func BenchmarkFrontier(b *testing.B) {
	g := benchGraph(2)
	for g.Remaining() > len(g.Nodes)/2 {
		g.Execute(g.Frontier()[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += len(g.Frontier())
	}
	_ = sink
}

// BenchmarkWalkAhead measures one look-ahead window scan (k=8, the MUSS-TI
// default) from the middle of a drain — the position where the pre-watermark
// implementation paid for every already-executed node below the frontier.
func BenchmarkWalkAhead(b *testing.B) {
	g := benchGraph(3)
	for g.Remaining() > len(g.Nodes)/2 {
		g.Execute(g.Frontier()[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		g.WalkAhead(8, func(layer int, n *Node) { sink += n.ID })
	}
	_ = sink
}

// BenchmarkWindowQuery measures the per-qubit look-ahead query (k=8) over
// the second half of a drain (BenchmarkWalkAhead's starting point). One op
// is one Execute, which starts a new layer-memo epoch, then one query on
// each qubit: 64 chain walks sharing one memo. When the graph drains, it is
// reset and run back to the halfway point off the clock.
func BenchmarkWindowQuery(b *testing.B) { benchWindowQuery(b, false) }

// BenchmarkWindowQueryPair is BenchmarkWindowQuery with the schedulers'
// real query traffic: after each Execute, trySwapFor reads the windows of
// the executed gate's two operands only.
func BenchmarkWindowQueryPair(b *testing.B) { benchWindowQuery(b, true) }

// benchWindowQuery runs the drain loop of the window-query benchmarks,
// querying the executed gate's operands (pair) or every qubit after each
// Execute.
func benchWindowQuery(b *testing.B, pair bool) {
	g := benchGraph(3)
	half := func() {
		g.Reset()
		for g.Remaining() > len(g.Nodes)/2 {
			g.Execute(g.Frontier()[0])
		}
	}
	half()
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		if g.Done() {
			b.StopTimer()
			half()
			b.StartTimer()
		}
		id := g.Frontier()[0]
		g.Execute(id)
		if pair {
			qs := g.Nodes[id].Gate.Qubits
			sink += len(g.QubitWindow(qs[0], 8)) + len(g.QubitWindow(qs[1], 8))
			continue
		}
		for q := range g.ByQubit {
			sink += len(g.QubitWindow(q, 8))
		}
	}
	_ = sink
}
