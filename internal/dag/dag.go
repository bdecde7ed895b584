// Package dag builds and consumes the gate dependency graph described in
// §3.1 of the MUSS-TI paper.
//
// Each two-qubit gate of the circuit is a node; a directed edge (g_i, g_j)
// means g_j may only execute after g_i. MUSS-TI disregards one-qubit gates
// during scheduling (they execute in place), so the graph is built over
// two-qubit gates only, with dependencies induced by operand overlap: two
// gates conflict iff they share a qubit, and the earlier one in program
// order is the predecessor. Because qubit timelines are linear, it is
// sufficient to link each gate to the *next* gate on each of its operands —
// the transitive closure recovers all ordering constraints, and the graph
// stays O(g) in size, matching the paper's O(g) construction cost.
package dag

import (
	"fmt"
	"slices"

	"mussti/internal/circuit"
)

// Node is one two-qubit gate in the dependency graph.
type Node struct {
	// ID is the node's index within the graph (0..len(Nodes)-1), which is
	// also its rank in program order over two-qubit gates.
	ID int
	// GateIndex is the index of the gate in the source circuit's Gates.
	GateIndex int
	// Gate is the two-qubit gate itself.
	Gate circuit.Gate
	// Succ and Pred are adjacent node IDs (at most 2 each: one per operand).
	Succ []int
	Pred []int
}

// Graph is the dependency DAG over the two-qubit gates of one circuit.
type Graph struct {
	Nodes []Node
	// ByQubit lists, for each qubit, the node IDs touching it in order.
	ByQubit [][]int

	// indegree[id] counts the *unexecuted* predecessors of id; it reaches 0
	// exactly when id joins the frontier, whose nodes are remaining layer 0.
	indegree []int
	executed []bool
	// frontier holds the currently executable node IDs in ascending order.
	// It is maintained incrementally: Execute removes the executed ID and
	// merges unlocked successors at their sorted positions, so no scheduler
	// step ever rebuilds (or re-sorts) it from scratch.
	frontier []int
	// frontierBuf is the reused snapshot handed out by Frontier.
	frontierBuf []int
	nLeft       int
	// watermark is the smallest unexecuted node ID (len(Nodes) when done).
	// Everything below it is history: no look-ahead or frontier operation
	// ever looks at IDs under the watermark again.
	watermark int

	// cursor[q] counts the executed nodes of q's ByQubit chain. Consecutive
	// gates on a qubit are DAG edges, so the executed ones are always a
	// prefix of the chain and ByQubit[q][cursor[q]:] is q's remaining work.
	// Execute advances it; QubitWindow reads from it.
	cursor []int32

	// Look-ahead layer memo, reused across calls so the steady state
	// allocates nothing. waMark is an epoch stamp: entries of waDepth/waSeen
	// are valid only where waMark equals the current generation waGen, which
	// makes clearing between graph states O(1) instead of O(nodes). Execute
	// and Reset start a new epoch, since both move layers. Within an epoch,
	// waSeen says what waDepth holds for a node layerWithin has touched: its
	// exact remaining layer (layerExact) or only a lower bound on it
	// (layerBound). Layers do not depend on k, so one epoch's memo serves
	// queries at every k. waQueue is WalkAhead's BFS queue.
	waDepth []int32
	waSeen  []int32
	waMark  []uint32
	waGen   uint32
	waQueue []int32
}

// Build constructs the graph from a circuit. Only two-qubit gates become
// nodes; all other gates are ignored.
//
// Construction is O(g) in both time and allocation count: every node's
// Succ/Pred slice (at most two entries each, one per operand) and every
// ByQubit list is carved out of one shared backing array sized by a first
// counting pass, so building never reallocates per node.
func Build(c *circuit.Circuit) *Graph {
	nTwo := 0
	perQubit := make([]int, c.NumQubits) // two-qubit gates touching each qubit
	for _, gate := range c.Gates {
		if gate.Kind.IsTwoQubit() {
			nTwo++
			perQubit[gate.Qubits[0]]++
			perQubit[gate.Qubits[1]]++
		}
	}
	g := &Graph{
		Nodes:   make([]Node, 0, nTwo),
		ByQubit: make([][]int, c.NumQubits),
	}
	edgeBacking := make([]int, 4*nTwo) // 2 Succ + 2 Pred slots per node
	byQubitBacking := make([]int, 2*nTwo)
	off := 0
	for q, cnt := range perQubit {
		g.ByQubit[q] = byQubitBacking[off : off : off+cnt]
		off += cnt
	}
	last := perQubit // reuse: last node touching each qubit, -1 if none
	for i := range last {
		last[i] = -1
	}
	for gi, gate := range c.Gates {
		if !gate.Kind.IsTwoQubit() {
			continue
		}
		id := len(g.Nodes)
		n := Node{
			ID: id, GateIndex: gi, Gate: gate,
			Succ: edgeBacking[4*id : 4*id : 4*id+2],
			Pred: edgeBacking[4*id+2 : 4*id+2 : 4*id+4],
		}
		g.Nodes = append(g.Nodes, n)
		for _, q := range gate.Operands() {
			if p := last[q]; p >= 0 {
				// Avoid duplicate edge when both operands match.
				if len(g.Nodes[id].Pred) == 0 || g.Nodes[id].Pred[len(g.Nodes[id].Pred)-1] != p {
					g.Nodes[p].Succ = append(g.Nodes[p].Succ, id)
					g.Nodes[id].Pred = append(g.Nodes[id].Pred, p)
				}
			}
			last[q] = id
			g.ByQubit[q] = append(g.ByQubit[q], id)
		}
	}
	g.reset()
	return g
}

func (g *Graph) reset() {
	if g.indegree == nil {
		n := len(g.Nodes)
		g.indegree = make([]int, n)
		g.executed = make([]bool, n)
		g.waDepth = make([]int32, n)
		g.waSeen = make([]int32, n)
		g.waMark = make([]uint32, n)
		g.cursor = make([]int32, len(g.ByQubit))
	}
	clear(g.cursor)
	g.newEpoch()
	g.frontier = g.frontier[:0]
	g.nLeft = len(g.Nodes)
	g.watermark = 0
	for _, n := range g.Nodes {
		g.executed[n.ID] = false
		g.indegree[n.ID] = len(n.Pred)
		if len(n.Pred) == 0 {
			// IDs ascend, so appends keep the frontier sorted.
			g.frontier = append(g.frontier, n.ID)
		}
	}
}

// Reset restores the graph to its unexecuted state so it can be scheduled
// again without rebuilding. The compiler leans on this: one compile replays
// a single Graph across the SABRE forward probe and every candidate
// production pass (core's per-circuit prep), so Reset runs on the compile
// hot path — it must restore every piece of execution state (indegree,
// executed flags, frontier, watermark, chain cursors, layer-memo epoch) and
// nothing else.
func (g *Graph) Reset() { g.reset() }

// Clone returns a graph that shares g's immutable structure (Nodes, ByQubit
// and their backing arrays — frozen after Build) but owns private execution
// state, so two scheduling passes over one circuit can run concurrently.
// The clone starts unexecuted; it is as if Build had run twice, minus the
// O(g) construction. Cloning does not read g's execution state, so it is
// safe even while g itself is mid-schedule on another goroutine.
//
//mussti:hotpath
func (g *Graph) Clone() *Graph {
	c := &Graph{Nodes: g.Nodes, ByQubit: g.ByQubit} //mussti:allow=hotalloc one graph header per clone; reset reuses nothing of g's state
	c.reset()
	return c
}

// Remaining reports how many nodes have not been executed yet.
func (g *Graph) Remaining() int { return g.nLeft }

// Done reports whether every node has been executed.
func (g *Graph) Done() bool { return g.nLeft == 0 }

// Frontier returns the IDs of currently executable nodes (zero unexecuted
// predecessors), in ascending ID order — i.e. first-come first-served order,
// which is the tie-break MUSS-TI's gate selection uses.
//
// The returned slice is a reused buffer: it stays valid (as a snapshot)
// across Execute calls, but the next Frontier call overwrites it, so callers
// must not retain it across frontier reads.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) Frontier() []int {
	if cap(g.frontierBuf) < len(g.frontier) {
		g.frontierBuf = make([]int, 0, cap(g.frontier)) //mussti:allow=hotalloc scratch grows to the widest frontier, then stays
	}
	g.frontierBuf = g.frontierBuf[:len(g.frontier)]
	copy(g.frontierBuf, g.frontier)
	return g.frontierBuf
}

// FirstUnexecuted returns the smallest unexecuted node ID — the watermark
// below which every node has executed — or len(Nodes) when the graph is
// done. Look-ahead windows start no earlier than here.
func (g *Graph) FirstUnexecuted() int { return g.watermark }

// Executed reports whether node id has been executed.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) Executed(id int) bool { return g.executed[id] }

// Execute marks a frontier node as done and unlocks its successors.
// It panics if the node is not currently executable — calling it otherwise
// indicates a scheduler bug, which must not be silently absorbed.
//
//mussti:hotpath
func (g *Graph) Execute(id int) {
	pos := g.frontierIndex(id)
	if pos < 0 {
		panic(fmt.Sprintf("dag: node %d executed out of order (indegree %d, executed %v)",
			id, g.indegree[id], g.executed[id]))
	}
	g.frontier = append(g.frontier[:pos], g.frontier[pos+1:]...)
	g.executed[id] = true
	g.nLeft--
	g.newEpoch()
	// Gate.Operands would allocate; the two fixed slots name the same
	// qubits, and a chain holding id twice is advanced twice.
	g.cursor[g.Nodes[id].Gate.Qubits[0]]++
	g.cursor[g.Nodes[id].Gate.Qubits[1]]++
	for g.watermark < len(g.Nodes) && g.executed[g.watermark] {
		g.watermark++
	}
	for _, s := range g.Nodes[id].Succ {
		g.indegree[s]--
		if g.indegree[s] == 0 {
			g.frontierInsert(s)
		}
	}
}

// frontierIndex binary-searches the sorted frontier for id; -1 when absent.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) frontierIndex(id int) int {
	lo, hi := 0, len(g.frontier)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.frontier[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.frontier) && g.frontier[lo] == id {
		return lo
	}
	return -1
}

// frontierInsert places id at its sorted position. Unlocked successors have
// larger IDs than the executed node but not necessarily than the rest of the
// frontier, so this is a real insertion, not an append.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) frontierInsert(id int) {
	lo, hi := 0, len(g.frontier)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.frontier[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	g.frontier = append(g.frontier, 0)
	copy(g.frontier[lo+1:], g.frontier[lo:])
	g.frontier[lo] = id
}

// Layers returns the ASAP layering of the graph: layer 0 is the initial
// frontier, layer i+1 the nodes whose longest path from a source has length
// i+1. Used by tests and by CriticalPathLen.
func (g *Graph) Layers() [][]int {
	depth := make([]int, len(g.Nodes))
	var layers [][]int
	for id := range g.Nodes {
		d := 0
		for _, p := range g.Nodes[id].Pred {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[id] = d
		for len(layers) <= d {
			layers = append(layers, nil)
		}
		layers[d] = append(layers[d], id)
	}
	return layers
}

// waSeen values of a memoized node: waDepth holds its exact remaining layer,
// or only a lower bound on it.
const (
	layerBound int32 = iota
	layerExact
)

// newEpoch invalidates the whole layer memo in O(1).
//
//mussti:hotpath
//mussti:inline
func (g *Graph) newEpoch() {
	g.waGen++
	if g.waGen == 0 { // epoch counter wrapped: invalidate all stale marks
		clear(g.waMark)
		g.waGen = 1
	}
}

// layerWithin returns the remaining layer of the unexecuted node id (the
// longest path to it through unexecuted predecessors) when that layer is at
// most lim, and lim+1 otherwise.
//
// It is a bounded, memoized ancestor walk: a frontier node is layer 0, and
// any other node recurses into its unexecuted predecessors with lim-1,
// stopping as soon as one of them lies beyond that. So a query touches only
// ancestors within lim layers of id, and each of them once per epoch unless
// a larger lim asks past a lower bound an earlier, smaller one left behind.
//
//mussti:hotpath
func (g *Graph) layerWithin(id int, lim int32) int32 {
	if g.waMark[id] == g.waGen {
		d := g.waDepth[id]
		if g.waSeen[id] == layerExact {
			return min(d, lim+1)
		}
		if d > lim {
			return lim + 1
		}
	}
	g.waMark[id] = g.waGen
	if g.indegree[id] == 0 {
		g.waDepth[id], g.waSeen[id] = 0, layerExact
		return 0
	}
	d := int32(1)
	if lim > 0 {
		for _, p := range g.Nodes[id].Pred {
			if g.executed[p] {
				continue // would answer 0, which never lifts d above 1
			}
			if r := g.layerWithin(p, lim-1); r >= lim {
				d = lim + 1
				break
			} else if r+1 > d {
				d = r + 1
			}
		}
	}
	if d > lim {
		g.waDepth[id], g.waSeen[id] = lim+1, layerBound
		return lim + 1
	}
	g.waDepth[id], g.waSeen[id] = d, layerExact
	return d
}

// windowLim is the largest layer inside a k-layer window, capped at the
// deepest layer the remaining graph can hold so that it fits layerWithin's
// int32 arithmetic for any k.
func (g *Graph) windowLim(k int) int32 {
	return int32(min(k, g.nLeft) - 1)
}

// QubitWindow returns the unexecuted gates on qubit q within the first k
// layers of the remaining graph, in ascending node-ID order — the nodes
// WalkAhead(k, ...) would visit that touch q. This is the per-qubit query
// behind the look-ahead scoring of §3.2 routing and §3.3 SWAP insertion.
//
// Consecutive gates on a qubit are DAG edges, so layers rise strictly along
// q's remaining ByQubit chain and the answer is a prefix of that chain: the
// walk asks layerWithin for each gate in turn and stops at the first one
// outside the window. Layers are memoized per graph state, so queries
// between two Executes share the ancestor walks, at any k. The result
// aliases ByQubit and must not be modified; it stays valid across Execute.
// WindowLayer reads the layers of its members until the next Execute,
// Reset or WalkAhead.
//
//mussti:hotpath
func (g *Graph) QubitWindow(q, k int) []int {
	if k <= 0 {
		return nil
	}
	lim := g.windowLim(k)
	chain := g.ByQubit[q][g.cursor[q]:]
	n := 0
	for n < len(chain) && g.layerWithin(chain[n], lim) <= lim {
		n++
	}
	return chain[:n:n]
}

// WindowLayer returns the remaining-graph layer of id, a member of a
// window QubitWindow returned since the last Execute, Reset or WalkAhead.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) WindowLayer(id int) int { return int(g.waDepth[id]) }

// WalkAhead visits unexecuted nodes in the first k layers *of the remaining
// graph* (layer = longest unexecuted-predecessor path), calling visit for
// each with its remaining-layer index, in ascending node-ID order. This is
// the whole "first k layers of the DAG" window of §3.3; the schedulers ask
// the per-qubit QubitWindow instead.
//
// The walk is a BFS from the frontier over layerWithin: every window member
// is reachable from the frontier through members, since a member's
// unexecuted predecessors lie in lower layers. A successor is enqueued from
// its last unexecuted predecessor only, so once, and only when it is a
// member; the members are then sorted into ID order. Every call starts a
// new epoch, so it is never served from the memo QubitWindow left behind.
// All scratch lives on the Graph, so steady-state calls allocate nothing.
// visit must not query the window of g.
//
//mussti:hotpath
func (g *Graph) WalkAhead(k int, visit func(layer int, n *Node)) {
	if k <= 0 || g.nLeft == 0 {
		return
	}
	g.newEpoch()
	lim := g.windowLim(k)
	queue := g.waQueue[:0]
	for _, id := range g.frontier {
		g.layerWithin(id, lim) // memoizes layer 0 for visit
		queue = append(queue, int32(id))
	}
	for head := 0; head < len(queue); head++ {
		id := int(queue[head])
		for _, s := range g.Nodes[id].Succ {
			if g.lastLivePred(s) == id && g.layerWithin(s, lim) <= lim {
				queue = append(queue, int32(s))
			}
		}
	}
	g.waQueue = queue
	slices.Sort(queue)
	for _, id := range queue {
		visit(int(g.waDepth[id]), &g.Nodes[id])
	}
}

// lastLivePred returns the last unexecuted entry of id's Pred list, or -1.
//
//mussti:hotpath
//mussti:inline
func (g *Graph) lastLivePred(id int) int {
	pred := g.Nodes[id].Pred
	for i := len(pred) - 1; i >= 0; i-- {
		if !g.executed[pred[i]] {
			return pred[i]
		}
	}
	return -1
}

// CriticalPathLen returns the number of layers (two-qubit depth).
func (g *Graph) CriticalPathLen() int { return len(g.Layers()) }

// Validate checks structural invariants: edges are consistent, IDs ascend in
// program order, and the edge relation matches operand overlap. Tests use it
// as a property check against randomly generated circuits.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		for _, s := range n.Succ {
			if s <= n.ID || s >= len(g.Nodes) {
				return fmt.Errorf("node %d: bad successor %d", n.ID, s)
			}
			if !contains(g.Nodes[s].Pred, n.ID) {
				return fmt.Errorf("edge %d->%d missing reverse link", n.ID, s)
			}
			if !sharesOperand(n.Gate, g.Nodes[s].Gate) {
				return fmt.Errorf("edge %d->%d without shared operand", n.ID, s)
			}
		}
		for _, p := range n.Pred {
			if p >= n.ID || p < 0 {
				return fmt.Errorf("node %d: bad predecessor %d", n.ID, p)
			}
			if !contains(g.Nodes[p].Succ, n.ID) {
				return fmt.Errorf("edge %d->%d missing forward link", p, n.ID)
			}
		}
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func sharesOperand(a, b circuit.Gate) bool {
	for _, q := range a.Operands() {
		if b.Touches(q) {
			return true
		}
	}
	return false
}
