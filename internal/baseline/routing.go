package baseline

import (
	"fmt"
	"math"
)

// hop shuttles q one grid step to the adjacent trap `next`, evicting an ion
// from `next` to its least-loaded neighbour if it is full. Eviction never
// displaces a protected qubit.
func (r *gridRouter) hop(q, next, protectA, protectB int) error {
	for r.eng.Free(next) == 0 {
		victim := r.evictionVictim(next, protectA, protectB)
		if victim == -1 {
			return fmt.Errorf("baseline: trap %d full of protected ions", next)
		}
		spill, hops := r.spillTarget(next)
		if spill == -1 {
			return fmt.Errorf("baseline: grid has no free slot for eviction from trap %d", next)
		}
		// The evicted ion transits intermediate junctions without merging
		// into chains en route, so a multi-hop spill is one shuttle over a
		// longer distance.
		victimFrom := r.eng.ZoneOf(victim)
		if err := r.eng.Move(victim, spill, float64(hops)*r.grid.TrapPitchUM); err != nil {
			return err
		}
		r.obs.Eviction(victim, victimFrom, spill)
	}
	from := r.eng.ZoneOf(q)
	if err := r.eng.Move(q, next, r.grid.TrapPitchUM); err != nil {
		return err
	}
	r.obs.Shuttle(q, from, next)
	return nil
}

// evictionVictim picks the LRU ion of a trap, skipping protected qubits.
func (r *gridRouter) evictionVictim(trap, protectA, protectB int) int {
	victim, oldest := -1, int64(math.MaxInt64)
	for _, q := range r.eng.Chain(trap) {
		if q == protectA || q == protectB {
			continue
		}
		if r.lastUsed[q] < oldest {
			victim, oldest = q, r.lastUsed[q]
		}
	}
	return victim
}

// spillTarget finds the nearest trap with free space by breadth-first
// search from the congested trap, preferring the least-loaded trap among
// the nearest ring. Returns (-1, 0) only when the whole grid is full.
func (r *gridRouter) spillTarget(trap int) (target, hops int) {
	visited := make([]bool, r.grid.NumTraps())
	visited[trap] = true
	ring := []int{trap}
	for depth := 1; len(ring) > 0; depth++ {
		var next []int
		best, bestLoad := -1, math.MaxInt32
		for _, t := range ring {
			for _, nb := range r.grid.Neighbors(t) {
				if visited[nb] {
					continue
				}
				visited[nb] = true
				next = append(next, nb)
				if r.eng.Free(nb) > 0 {
					if l := r.eng.Load(nb); l < bestLoad {
						best, bestLoad = nb, l
					}
				}
			}
		}
		if best != -1 {
			return best, depth
		}
		ring = next
	}
	return -1, 0
}

// walk shuttles q trap-by-trap to dst along a shortest path.
func (r *gridRouter) walk(q, dst, protectA, protectB int) error {
	for r.eng.ZoneOf(q) != dst {
		next := r.grid.PathTowards(r.eng.ZoneOf(q), dst)
		if err := r.hop(q, next, protectA, protectB); err != nil {
			return err
		}
	}
	return nil
}

// routeMurali implements the greedy ISCA-2020 policy: move the first
// operand trap-by-trap into its partner's trap, then execute.
func (r *gridRouter) routeMurali(id int) error {
	a, b := r.operands(id)
	if err := r.walk(a, r.eng.ZoneOf(b), a, b); err != nil {
		return err
	}
	return r.executeNode(id)
}

// routeDai implements the TQE-2024 advanced shuttle strategy: pick the
// meeting trap by minimising current travel plus a look-ahead term over
// upcoming partners, and move only the qubits that need moving.
func (r *gridRouter) routeDai(id int) error {
	a, b := r.operands(id)
	dst := r.bestMeetingTrap(a, b)
	for _, q := range [2]int{a, b} {
		if r.eng.ZoneOf(q) != dst {
			if err := r.walk(q, dst, a, b); err != nil {
				return err
			}
		}
	}
	return r.executeNode(id)
}

// bestMeetingTrap scores candidate traps for a Dai-style gate: travel cost
// for the two operands, future-partner attraction within the look-ahead
// window, and congestion penalty. Candidates are the operand traps and the
// traps on the bounding rectangle corners between them — a small, cheap
// candidate set that covers "stay", "meet at partner" and "meet midway".
func (r *gridRouter) bestMeetingTrap(a, b int) int {
	ta, tb := r.eng.ZoneOf(a), r.eng.ZoneOf(b)
	ra, ca := r.grid.RowCol(ta)
	rb, cb := r.grid.RowCol(tb)
	mid := r.grid.TrapAt((ra+rb)/2, (ca+cb)/2)
	cands := []int{ta, tb, mid}

	// Look-ahead attraction: positions of the next partners of a and b,
	// gathered into one reused buffer (one window scan per operand).
	attract := r.futurePartnerTraps(a, b)

	best, bestCost := tb, math.Inf(1)
	for _, t := range cands {
		cost := float64(r.grid.Distance(ta, t) + r.grid.Distance(tb, t))
		for _, at := range attract {
			cost += 0.3 * float64(r.grid.Distance(t, at))
		}
		// Congestion: ions that would need evicting.
		incoming := 0
		if ta != t {
			incoming++
		}
		if tb != t {
			incoming++
		}
		if over := incoming - r.eng.Free(t); over > 0 {
			cost += 2 * float64(over)
		}
		if cost < bestCost {
			best, bestCost = t, cost
		}
	}
	return best
}

// futurePartnerTraps returns the traps of a's partners within the next
// LookAhead DAG layers, in gate order, followed by b's, each read from the
// graph's per-qubit window. The two lists stay apart: interleaving the
// partners would change the floating-point summation order of
// bestMeetingTrap's cost (bit-identical schedules are this package's
// golden-output contract). The result is the router's reused scratch
// buffer, valid until the next routed gate.
func (r *gridRouter) futurePartnerTraps(a, b int) []int {
	traps := r.trapScratch[:0]
	for _, q := range [2]int{a, b} {
		for _, id := range r.g.QubitWindow(q, r.lookAhead) {
			traps = append(traps, r.eng.ZoneOf(r.g.Nodes[id].Gate.Other(q)))
		}
	}
	r.trapScratch = traps
	return traps
}

// routeMQT implements the dedicated-processing-zone discipline of the MQT
// shuttling compiler: both ions travel to the processing trap (trap 0),
// the gate executes there, and both ions return to their home traps. The
// back-and-forth makes schedules predictable and verifiable — and shuttle-
// expensive, matching the [70] columns of Table 2.
func (r *gridRouter) routeMQT(id int) error {
	a, b := r.operands(id)
	const processing = 0
	for _, q := range [2]int{a, b} {
		if err := r.walk(q, processing, a, b); err != nil {
			return err
		}
	}
	if err := r.executeNode(id); err != nil {
		return err
	}
	for _, q := range [2]int{a, b} {
		if err := r.walkHome(q, a, b); err != nil {
			return err
		}
	}
	return nil
}

// walkHome returns q towards its home trap, diverting to the nearest trap
// with space if home is full.
func (r *gridRouter) walkHome(q, protectA, protectB int) error {
	dst := r.home[q]
	if r.eng.Free(dst) == 0 && r.eng.ZoneOf(q) != dst {
		if alt, _ := r.spillTarget(dst); alt != -1 {
			dst = alt
		}
	}
	return r.walk(q, dst, protectA, protectB)
}
