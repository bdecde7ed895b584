package core

import (
	"fmt"
	"math"

	"mussti/internal/arch"
)

// route brings the operands of DAG node id into an executable configuration
// (§3.2 "Qubit Routing" + "Conflict Handling"). Same-module pairs are
// gathered into the best gate-capable zone of that module; cross-module
// pairs are delivered to their modules' optical zones for a fiber gate.
//
//mussti:hotpath
func (s *scheduler) route(id int) error {
	a, b := s.operands(id)
	ma := s.d.Zone(s.eng.ZoneOf(a)).Module
	mb := s.d.Zone(s.eng.ZoneOf(b)).Module
	if ma == mb {
		return s.routeIntra(a, b, ma)
	}
	if err := s.routeToOptical(a, b); err != nil {
		return err
	}
	return s.routeToOptical(b, a)
}

// routeIntra co-locates a and b inside module m's best gate-capable zone.
// Zone choice follows the multi-level scheduling rule: among candidate
// zones, minimise the estimated shuttle cost — immediate gather cost plus a
// look-ahead attraction term that keeps moved qubits near their upcoming
// partners; ties break towards the higher level (zones "closest in level"
// to the CPU end of the hierarchy).
//
//mussti:hotpath
func (s *scheduler) routeIntra(a, b, m int) error {
	attract := s.futureAttraction(a, b)
	type cand struct {
		zone  int
		cost  float64
		level arch.Level
	}
	best := cand{zone: -1, cost: math.Inf(1), level: -1}
	for _, z := range s.d.Modules[m].Zones {
		info := s.d.Zone(z)
		if !info.Level.GateCapable() {
			continue
		}
		cost := s.gatherCost(z, a, b) + s.attractionCost(z, attract)
		if cost < best.cost || (cost == best.cost && info.Level > best.level) {
			best = cand{zone: z, cost: cost, level: info.Level}
		}
	}
	if best.zone == -1 {
		return fmt.Errorf("core: module %d has no gate-capable zone", m)
	}
	for _, q := range [2]int{a, b} {
		if s.eng.ZoneOf(q) == best.zone {
			continue
		}
		if err := s.moveWithEviction(q, best.zone, a, b); err != nil {
			return err
		}
	}
	return nil
}

// attraction is one future interaction of a routed qubit: the partner's
// current zone (or the module's optical zone for cross-module partners)
// weighted by how soon the gate comes up.
type attraction struct {
	qubit  int
	target int
	weight float64
}

// futureAttraction returns, for the two routed qubits, where their upcoming
// partners within the look-ahead window sit. Weights decay with DAG layer so
// imminent gates dominate. It visits the window gates of a and b in one
// ascending-ID merge of their QubitWindow chains, the shared gate once, so
// the attractions come out in the order a whole-window scan would produce
// them and attractionCost sums them in that order. The returned slice is
// the scheduler's reused scratch buffer — valid until the next routed gate.
//
//mussti:hotpath
func (s *scheduler) futureAttraction(a, b int) []attraction {
	if s.opts.DisableRoutingLookAhead {
		return nil
	}
	out := s.attractScratch[:0]
	wa := s.g.QubitWindow(a, s.opts.LookAhead)
	wb := s.g.QubitWindow(b, s.opts.LookAhead)
	for len(wa) > 0 || len(wb) > 0 {
		var id int
		switch {
		case len(wb) == 0 || len(wa) > 0 && wa[0] < wb[0]:
			id, wa = wa[0], wa[1:]
		case len(wa) == 0 || wb[0] < wa[0]:
			id, wb = wb[0], wb[1:]
		default: // a gate on both a and b sits in both chains
			id, wa, wb = wa[0], wa[1:], wb[1:]
		}
		n := &s.g.Nodes[id]
		for _, q := range [2]int{a, b} {
			p := n.Gate.Other(q)
			if p < 0 || p == a || p == b {
				continue
			}
			zq, zp := s.eng.ZoneOf(q), s.eng.ZoneOf(p)
			mq, mp := s.d.Zone(zq).Module, s.d.Zone(zp).Module
			target := zp
			if mp != mq {
				// A cross-module partner pulls q towards its own module's
				// optical zone, where the fiber gate will need it.
				opt := s.d.ZonesByLevel(mq, arch.LevelOptical)
				if len(opt) == 0 {
					continue
				}
				target = opt[0]
			}
			out = append(out, attraction{qubit: q, target: target, weight: 1 / float64(1+s.g.WindowLayer(id))})
		}
	}
	s.attractScratch = out
	return out
}

// attractionCost estimates the future shuttle cost of parking the routed
// qubits in zone z given their upcoming partners. Both operands end up in z
// after the gather, so every attraction in the list contributes.
//
//mussti:hotpath
func (s *scheduler) attractionCost(z int, attract []attraction) float64 {
	p := s.opts.Params
	cost := 0.0
	for _, at := range attract {
		if at.target == z {
			continue
		}
		cost += at.weight * (p.SplitTimeUS + p.MergeTimeUS + p.MoveTimeUS(s.d.IntraDistanceUM(z, at.target)))
	}
	return cost
}

// routeToOptical delivers q into an optical zone of its own module ahead of
// a fiber gate with partner (partner only matters for eviction exclusion).
//
//mussti:hotpath
func (s *scheduler) routeToOptical(q, partner int) error {
	zq := s.eng.ZoneOf(q)
	if s.d.Zone(zq).Level == arch.LevelOptical {
		return nil
	}
	m := s.d.Zone(zq).Module
	best, bestCost := -1, math.Inf(1)
	for _, z := range s.d.ZonesByLevel(m, arch.LevelOptical) {
		cost := s.gatherCost(z, q, -1)
		if cost < bestCost {
			best, bestCost = z, cost
		}
	}
	if best == -1 {
		return fmt.Errorf("core: module %d has no optical zone", m)
	}
	return s.moveWithEviction(q, best, q, partner)
}

// gatherCost estimates the shuttle cost of bringing a (and b, when b ≥ 0)
// into zone z: chain-swap and split/move/merge times for each qubit not
// already there, plus an eviction penalty when z lacks the needed free
// slots.
//
//mussti:hotpath
func (s *scheduler) gatherCost(z, a, b int) float64 {
	p := s.opts.Params
	cost := 0.0
	need := 0
	for _, q := range [2]int{a, b} {
		if q < 0 {
			continue
		}
		zq := s.eng.ZoneOf(q)
		if zq == z {
			continue
		}
		if s.d.Zone(zq).Module != s.d.Zone(z).Module {
			// Cross-module gather is impossible; poison this candidate.
			return math.Inf(1)
		}
		need++
		cost += float64(s.eng.SwapsToEdge(q)) * p.SwapTimeUS
		cost += p.SplitTimeUS + p.MergeTimeUS + p.MoveTimeUS(s.d.IntraDistanceUM(zq, z))
	}
	if free := s.eng.Free(z); free < need {
		// Each eviction is itself roughly one shuttle.
		evict := float64(need - free)
		cost += evict * (p.SplitTimeUS + p.MergeTimeUS + p.MoveTimeUS(s.d.ZonePitchUM))
	}
	return cost
}

// moveWithEviction shuttles q into zone dst, first making room when dst is
// full (§3.2 "Conflict Handling"). Victim selection goes through pickVictim,
// the ReplacementPolicy dispatcher in replacement.go: under the default
// ReplaceLRU it delegates to pickLRUVictim below (the paper's "qubit
// replacement scheduler"); the FIFO/random/Belady arms exist only for the
// ablation experiments. keepA/keepB are never evicted (the gate's own
// operands).
//
//mussti:hotpath
func (s *scheduler) moveWithEviction(q, dst, keepA, keepB int) error {
	for s.eng.Free(dst) < 1 {
		victim := s.pickVictim(dst, keepA, keepB)
		if victim == -1 {
			return fmt.Errorf("core: zone %d full of protected qubits", dst)
		}
		s.stats.Evictions++
		target, err := s.evictionTarget(dst)
		if err != nil {
			return err
		}
		victimFrom := s.eng.ZoneOf(victim)
		if err := s.eng.Move(victim, target, s.d.IntraDistanceUM(dst, target)); err != nil {
			return fmt.Errorf("core: evicting qubit %d: %w", victim, err)
		}
		s.obs.Eviction(victim, victimFrom, target)
	}
	from := s.eng.ZoneOf(q)
	if err := s.eng.Move(q, dst, s.d.IntraDistanceUM(from, dst)); err != nil {
		return err
	}
	s.obs.Shuttle(q, from, dst)
	return nil
}

// pickLRUVictim returns the least recently used resident of zone z,
// excluding the protected qubits; -1 when none is evictable. Ties on the
// LRU timestamp (common right after initial mapping, when nothing has run
// yet) break towards the qubit whose next gate lies farthest in the
// program — the Belady-style choice, so the replacement scheduler never
// evicts the ion the very next gate needs.
//
//mussti:hotpath
func (s *scheduler) pickLRUVictim(z, keepA, keepB int) int {
	victim, oldest, farthest := -1, int64(math.MaxInt64), -1
	for _, q := range s.eng.Chain(z) {
		if q == keepA || q == keepB {
			continue
		}
		nu := s.nextUse(q)
		if s.lastUsed[q] < oldest || (s.lastUsed[q] == oldest && nu > farthest) {
			victim, oldest, farthest = q, s.lastUsed[q], nu
		}
	}
	return victim
}

// nextUse returns the circuit index of q's next two-qubit gate, or a large
// sentinel (math.MaxInt32) when q is done entangling. O(1): the per-position
// answers were precomputed by buildNextUseTables at scheduler construction.
//
//mussti:hotpath
//mussti:inline
func (s *scheduler) nextUse(q int) int {
	return int(s.next2q[q][s.cursor[q]])
}

// evictionTarget picks where an evicted qubit goes: the multi-level rule
// sends it to the closest level below the source zone's level that has
// space, scanning levels downward, then (as a fallback that only triggers
// in degenerate configurations) any same-module zone with space.
//
//mussti:hotpath
func (s *scheduler) evictionTarget(from int) (int, error) {
	info := s.d.Zone(from)
	m := info.Module
	for level := info.Level - 1; level >= arch.LevelStorage; level-- {
		if z := s.closestWithSpace(from, s.d.ZonesByLevel(m, level)); z != -1 {
			return z, nil
		}
	}
	// No space below: try sideways/up, nearest first.
	if z := s.closestWithSpace(from, s.d.Modules[m].Zones); z != -1 {
		return z, nil
	}
	return -1, fmt.Errorf("core: module %d has no free slot for eviction from zone %d", m, from)
}

//mussti:hotpath
func (s *scheduler) closestWithSpace(from int, zones []int) int {
	best, bestDist := -1, math.Inf(1)
	for _, z := range zones {
		if z == from || s.eng.Free(z) < 1 {
			continue
		}
		d := s.d.IntraDistanceUM(from, z)
		if d < bestDist {
			best, bestDist = z, d
		}
	}
	return best
}
