package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mussti/internal/arch"
	"mussti/internal/circuit/bench"
	"mussti/internal/dag"
)

// The reference formulations below answer each look-ahead query by scanning
// the whole window with dag.WalkAhead. The scheduler's per-qubit window
// versions must match them exactly: same counts, same attractions in the
// same order.

func refWeightRow(s *scheduler, q int) []int {
	row := make([]int, len(s.d.Modules))
	s.g.WalkAhead(s.opts.LookAhead, func(_ int, n *dag.Node) {
		if p := n.Gate.Other(q); p >= 0 {
			row[s.moduleOf(p)]++
		}
	})
	return row
}

func refWeightTable(s *scheduler, qs []int) []int {
	nm := len(s.d.Modules)
	rowOf := make(map[int]int, len(qs))
	for i, q := range qs {
		rowOf[q] = i
	}
	rows := make([]int, len(qs)*nm)
	s.g.WalkAhead(s.opts.LookAhead, func(_ int, n *dag.Node) {
		a, b := n.Gate.Qubits[0], n.Gate.Qubits[1]
		if r, ok := rowOf[a]; ok {
			rows[r*nm+s.moduleOf(b)]++
		}
		if r, ok := rowOf[b]; ok {
			rows[r*nm+s.moduleOf(a)]++
		}
	})
	return rows
}

func refFutureAttraction(s *scheduler, a, b int) []attraction {
	var out []attraction
	s.g.WalkAhead(s.opts.LookAhead, func(layer int, n *dag.Node) {
		for _, q := range [2]int{a, b} {
			p := n.Gate.Other(q)
			if p < 0 || p == a || p == b {
				continue
			}
			zq, zp := s.eng.ZoneOf(q), s.eng.ZoneOf(p)
			mq, mp := s.d.Zone(zq).Module, s.d.Zone(zp).Module
			target := zp
			if mp != mq {
				opt := s.d.ZonesByLevel(mq, arch.LevelOptical)
				if len(opt) == 0 {
					continue
				}
				target = opt[0]
			}
			out = append(out, attraction{qubit: q, target: target, weight: 1 / float64(1+layer)})
		}
	})
	return out
}

// TestLookAheadQueriesMatchWholeWindowScan drives the DAG of two paper
// benchmarks through random execution orders and, at random states and
// look-ahead depths, compares weightRow, weightTable and futureAttraction
// with their whole-window reference formulations.
func TestLookAheadQueriesMatchWholeWindowScan(t *testing.T) {
	for _, name := range []string{"SQRT_n117", "QFT_n64"} {
		c := bench.MustByName(name)
		d := arch.MustNew(arch.DefaultConfig(c.NumQubits))
		initial, err := trivialMapping(c.NumQubits, d)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newScheduler(context.Background(), c, d, CompileConfig{}.withDefaults(), initial)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		checks := 0
		for !s.g.Done() {
			fr := s.g.Frontier()
			s.g.Execute(fr[rng.Intn(len(fr))])
			if rng.Intn(8) != 0 {
				continue
			}
			checks++
			s.opts.LookAhead = 1 + rng.Intn(12)
			qs := rng.Perm(c.NumQubits)[:1+rng.Intn(8)]
			for _, q := range qs {
				if got, want := s.weightRow(q), refWeightRow(s, q); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d: weightRow(%d) = %v, want %v", name, s.opts.LookAhead, q, got, want)
				}
			}
			if got, want := s.weightTable(qs), refWeightTable(s, qs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: weightTable(%v) = %v, want %v", name, s.opts.LookAhead, qs, got, want)
			}
			// A frontier gate's own pair, as routing asks it, and a random pair.
			pairs := [][2]int{{qs[0], (qs[0] + 1) % c.NumQubits}}
			if fr := s.g.Frontier(); len(fr) > 0 {
				a, b := s.operands(fr[0])
				pairs = append(pairs, [2]int{a, b})
			}
			for _, p := range pairs {
				got := append([]attraction(nil), s.futureAttraction(p[0], p[1])...)
				if want := refFutureAttraction(s, p[0], p[1]); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d: futureAttraction(%d,%d) = %v, want %v", name, s.opts.LookAhead, p[0], p[1], got, want)
				}
			}
		}
		if checks == 0 {
			t.Fatalf("%s: no state checked", name)
		}
	}
}
