// Package bench generates the benchmark applications used in the MUSS-TI
// evaluation (MICRO 2025, §4 "Benchmark Applications").
//
// The paper draws its circuits from QASMBench [36] and from Murali et
// al. [55]. Those .qasm files are not redistributable here and the build is
// offline, so each application is regenerated programmatically with the same
// qubit counts and the same structural communication pattern: GHZ is a CX
// chain, BV is a star centred on the ancilla, QAOA is a nearest-neighbour
// ring, QFT is all-to-all with triangular structure, Adder is a Cuccaro
// ripple-carry (local triples walking the register), and SQRT is a deep
// Grover-style iteration with wide cross-register Toffoli cascades — the
// communication-heavy extreme, matching the paper's observation that SQRT
// gains the most from MUSS-TI. RAN is a seeded uniform random two-qubit
// program and SC is a 2-D supremacy-style layered circuit.
//
// All generators are deterministic: the same name always yields the same
// circuit, so experiment output is reproducible run to run.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mussti/internal/circuit"
)

// Generator builds a named benchmark over n qubits.
type Generator func(n int) *circuit.Circuit

// generators maps the family name (lower-case) to its generator.
var generators = map[string]Generator{
	"adder": Adder,
	"bv":    BV,
	"ghz":   GHZ,
	"qaoa":  QAOA,
	"qft":   QFT,
	"sqrt":  SQRT,
	"ran":   RAN,
	"sc":    SC,
}

// Families lists the supported benchmark family names, sorted.
func Families() []string {
	out := make([]string, 0, len(generators))
	for name := range generators { //mussti:allow=determinism keys are sorted before returning
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// parseName resolves a "Family_nNN" identifier to its generator and qubit
// count. The count must be spelled canonically (no sign, no leading zeros),
// so each size has one name and ByName's cache one entry per size.
func parseName(name string) (Generator, int, error) {
	i := strings.LastIndex(name, "_n")
	if i < 0 {
		return nil, 0, fmt.Errorf("bench: malformed name %q (want Family_nNN)", name)
	}
	base := strings.ToLower(name[:i])
	digits := name[i+2:]
	n, err := strconv.Atoi(digits)
	if err != nil || n <= 0 || digits != strconv.Itoa(n) {
		return nil, 0, fmt.Errorf("bench: malformed qubit count in %q", name)
	}
	gen, ok := generators[base]
	if !ok {
		return nil, 0, fmt.Errorf("bench: unknown family %q (have %v)", base, Families())
	}
	return gen, n, nil
}

// Qubits validates a "Family_nNN" identifier and returns its qubit count
// without generating the circuit — so a caller can refuse an oversized
// request before paying for it.
func Qubits(name string) (int, error) {
	_, n, err := parseName(name)
	return n, err
}

// generate builds a benchmark from a "Family_nNN" identifier without
// consulting the cache. ByName (cache.go) memoizes it.
func generate(name string) (*circuit.Circuit, error) {
	gen, n, err := parseName(name)
	if err != nil {
		return nil, err
	}
	c := gen(n)
	c.Name = name
	return c, nil
}

// MustByName is ByName for known-good names; it panics on error.
func MustByName(name string) *circuit.Circuit {
	c, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return c
}

// SmallSuite returns the small-scale applications (30–32 qubits) of
// Table 2 / Fig. 6 left column.
func SmallSuite() []string {
	return []string{"Adder_n32", "BV_n32", "QAOA_n32", "GHZ_n32", "QFT_n32", "SQRT_n30"}
}

// MediumSuite returns the medium-scale applications (117–128 qubits) of
// Fig. 6 middle column. QFT is excluded exactly as in the paper (its
// fidelity underflows and is omitted from the medium/large figures).
func MediumSuite() []string {
	return []string{"Adder_n128", "BV_n128", "QAOA_n128", "GHZ_n128", "SQRT_n117"}
}

// LargeSuite returns the large-scale applications (256–299 qubits) of
// Fig. 6 right column.
func LargeSuite() []string {
	return []string{"Adder_n256", "BV_n256", "QAOA_n256", "GHZ_n256", "RAN_n256", "SC_n274", "SQRT_n299"}
}

// GHZ prepares an n-qubit GHZ state: H on qubit 0 followed by a CX chain.
// Two-qubit gates: n-1.
func GHZ(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("GHZ_n%d", n), n)
	c.H(0)
	for i := 0; i+1 < n; i++ {
		c.CX(i, i+1)
	}
	for i := 0; i < n; i++ {
		c.Measure(i)
	}
	return c
}

// BV implements Bernstein–Vazirani over n qubits (n-1 data + 1 ancilla).
// The hidden string sets every other bit, giving the star-shaped
// communication pattern on the ancilla with ~n/2 two-qubit gates.
func BV(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("BV_n%d", n), n)
	anc := n - 1
	c.X(anc)
	for i := 0; i < n; i++ {
		c.H(i)
	}
	for i := 0; i < anc; i += 2 { // hidden string 1010…
		c.CX(i, anc)
	}
	for i := 0; i < anc; i++ {
		c.H(i)
		c.Measure(i)
	}
	return c
}

// QAOA builds a depth-1 QAOA MaxCut ansatz on the n-cycle: RZZ on each ring
// edge plus the RX mixer. Nearest-neighbour only — the paper's example of an
// application with low communication demand.
func QAOA(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("QAOA_n%d", n), n)
	gamma, beta := 0.42, 0.77
	for i := 0; i < n; i++ {
		c.H(i)
	}
	for i := 0; i < n; i++ {
		c.RZZ(gamma, i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		c.RX(2*beta, i)
	}
	for i := 0; i < n; i++ {
		c.Measure(i)
	}
	return c
}

// QFT builds the full quantum Fourier transform: n(n-1)/2 controlled-phase
// gates with all-to-all triangular structure plus the final reversal swaps.
// The most communication-dense small benchmark (496 CP gates at n=32).
func QFT(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("QFT_n%d", n), n)
	for i := 0; i < n; i++ {
		c.H(i)
		for j := i + 1; j < n; j++ {
			c.CP(math.Pi/math.Pow(2, float64(j-i)), j, i)
		}
	}
	for i := 0; i < n/2; i++ {
		c.Swap(i, n-1-i)
	}
	for i := 0; i < n; i++ {
		c.Measure(i)
	}
	return c
}

// Adder builds a Cuccaro (CDKM) ripple-carry adder. With n total qubits the
// operand width is k = (n-2)/2; the registers interleave as QASMBench's
// adder does — cin, a0, b0, a1, b1, …, cout — so the MAJ and UMA ladders
// walk the register with index-local triples, short-range communication but
// gate-dense Toffoli decompositions.
func Adder(n int) *circuit.Circuit {
	if n < 4 {
		n = 4
	}
	c := circuit.New(fmt.Sprintf("Adder_n%d", n), n)
	k := (n - 2) / 2
	cin := 0
	a := func(i int) int { return 1 + 2*i }
	b := func(i int) int { return 2 + 2*i }
	cout := 1 + 2*k
	// Prepare operands in a classical-looking pattern so the circuit is
	// non-trivial: a = 0101…, b = 0011…
	for i := 0; i < k; i++ {
		if i%2 == 0 {
			c.X(a(i))
		}
		if i%4 < 2 {
			c.X(b(i))
		}
	}
	maj := func(x, y, z int) {
		c.CX(z, y)
		c.CX(z, x)
		c.Toffoli(x, y, z)
	}
	uma := func(x, y, z int) {
		c.Toffoli(x, y, z)
		c.CX(z, x)
		c.CX(x, y)
	}
	maj(cin, b(0), a(0))
	for i := 1; i < k; i++ {
		maj(a(i-1), b(i), a(i))
	}
	c.CX(a(k-1), cout)
	for i := k - 1; i >= 1; i-- {
		uma(a(i-1), b(i), a(i))
	}
	uma(cin, b(0), a(0))
	for i := 0; i < k; i++ {
		c.Measure(b(i))
	}
	c.Measure(cout)
	return c
}

// SQRT builds a Grover-style integer-square-root search in the shape of the
// QASMBench "sqrt" benchmark: repeated rounds of (multiply-compare oracle,
// diffusion), each realised with Toffoli cascades that couple the input
// register to the work register on the opposite half of the machine. The
// cross-half CX/Toffoli pattern makes it the most communication-heavy
// application in the suite, matching the paper's characterisation.
func SQRT(n int) *circuit.Circuit {
	if n < 6 {
		n = 6
	}
	c := circuit.New(fmt.Sprintf("SQRT_n%d", n), n)
	half := n / 2
	rounds := sqrtRounds(n)
	for i := 0; i < half; i++ {
		c.H(i)
	}
	for r := 0; r < rounds; r++ {
		// Oracle: square the input into the work register — cascades of
		// Toffolis from input pairs into work qubits, then a compare chain.
		for i := 0; i+1 < half; i += 2 {
			w := half + (i/2)%(n-half)
			c.Toffoli(i, i+1, w)
		}
		for i := 0; i < half; i++ {
			c.CX(i, half+(i+r)%(n-half))
		}
		// Phase kickback on the last work qubit.
		c.Z(n - 1)
		// Uncompute.
		for i := half - 1; i >= 0; i-- {
			c.CX(i, half+(i+r)%(n-half))
		}
		for i := half - 2; i >= 0; i -= 2 {
			w := half + (i/2)%(n-half)
			c.Toffoli(i, i+1, w)
		}
		// Diffusion on the input register.
		for i := 0; i < half; i++ {
			c.H(i)
			c.X(i)
		}
		for i := 0; i+2 < half; i += 3 {
			c.Toffoli(i, i+1, i+2)
		}
		for i := 0; i < half; i++ {
			c.X(i)
			c.H(i)
		}
	}
	for i := 0; i < half; i++ {
		c.Measure(i)
	}
	return c
}

// sqrtRounds scales the Grover iteration count so that the generated SQRT
// circuits land in the paper's reported two-qubit-gate range (tens of gates
// at n≈30 up to ~4.4k at n≈299).
func sqrtRounds(n int) int {
	if n <= 40 {
		return 2
	}
	return 3
}

// RAN builds a seeded uniform random circuit: 6n two-qubit MS gates over
// uniformly random distinct pairs, interleaved with random one-qubit
// rotations. Deterministic for a given n.
func RAN(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("RAN_n%d", n), n)
	rng := newSplitMix(0x5eed + uint64(n))
	for i := 0; i < n; i++ {
		c.H(i)
	}
	gates := 6 * n
	for g := 0; g < gates; g++ {
		a := int(rng.next() % uint64(n))
		b := int(rng.next() % uint64(n))
		for b == a {
			b = int(rng.next() % uint64(n))
		}
		if rng.next()%4 == 0 {
			c.RZ(float64(rng.next()%628)/100, a)
		}
		c.MS(a, b)
	}
	for i := 0; i < n; i++ {
		c.Measure(i)
	}
	return c
}

// SC builds a 2-D "supremacy-style" layered circuit: qubits on a
// ⌈√n⌉-wide grid, eight cycles alternating horizontal and vertical CZ
// pairings with random one-qubit gates in between — the short-distance
// nearest-neighbour pattern the paper describes as typical of circuits
// optimised for superconducting devices.
func SC(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("SC_n%d", n), n)
	w := int(math.Ceil(math.Sqrt(float64(n))))
	rng := newSplitMix(0x5c + uint64(n))
	oneQ := []func(int){c.H, c.T, func(q int) { c.RX(math.Pi/2, q) }}
	idx := func(r, col int) int { return r*w + col }
	rows := (n + w - 1) / w
	const cycles = 8
	for i := 0; i < n; i++ {
		c.H(i)
	}
	for cyc := 0; cyc < cycles; cyc++ {
		for i := 0; i < n; i++ {
			oneQ[int(rng.next()%uint64(len(oneQ)))](i)
		}
		if cyc%2 == 0 {
			// Horizontal pairs, offset alternates by cycle.
			off := (cyc / 2) % 2
			for r := 0; r < rows; r++ {
				for col := off; col+1 < w; col += 2 {
					a, b := idx(r, col), idx(r, col+1)
					if a < n && b < n {
						c.CZ(a, b)
					}
				}
			}
		} else {
			off := (cyc / 2) % 2
			for r := off; r+1 < rows; r += 2 {
				for col := 0; col < w; col++ {
					a, b := idx(r, col), idx(r+1, col)
					if a < n && b < n {
						c.CZ(a, b)
					}
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		c.Measure(i)
	}
	return c
}

// splitMix is a tiny deterministic PRNG (SplitMix64) so generators do not
// depend on math/rand seeding behaviour across Go versions.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
