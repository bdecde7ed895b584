package core

// Observer receives per-step callbacks from a running compilation, so
// progress reporting and tooling attach as a pluggable layer instead of a
// fork of the scheduling loop. Set it as CompileConfig.Observer; MUSS-TI
// and the baseline compilers all report through it.
//
// Callbacks arrive synchronously on the compiling goroutine: they must be
// cheap and must not call back into the compiler. One Compile run may
// restart the gate count — SABRE evaluates several candidate mappings, each
// a full scheduling pass — so done can move backwards between passes.
// Implementations attached to several concurrent compilations must be safe
// for concurrent use.
type Observer interface {
	// GateScheduled fires after each two-qubit gate executes; done counts
	// gates executed in the current pass, total the pass's two-qubit gates.
	GateScheduled(done, total int)
	// Shuttle fires for each routing move of qubit q from zone `from` to
	// zone `to` (baseline compilers report per-trap hops).
	Shuttle(q, from, to int)
	// Eviction fires for each conflict-handling eviction of victim from
	// zone `from` to zone `to` — the page-fault events of §3.2.
	Eviction(victim, from, to int)
	// SwapInserted fires for each inter-module SWAP the §3.3 inserter adds
	// between qubits a and b.
	SwapInserted(a, b int)
}

// nopObserver is the Observer the scheduler uses when
// CompileConfig.Observer is nil, so the run loop never branches on
// observation.
type nopObserver struct{}

func (nopObserver) GateScheduled(done, total int) {}
func (nopObserver) Shuttle(q, from, to int)       {}
func (nopObserver) Eviction(victim, from, to int) {}
func (nopObserver) SwapInserted(a, b int)         {}

// ObserverOrNop returns obs, or the no-op observer when obs is nil, so run
// loops (here and in the baseline compilers) never branch on observation.
func ObserverOrNop(obs Observer) Observer {
	if obs == nil {
		return nopObserver{}
	}
	return obs
}

// observerEvent kinds recorded by replayObserver.
const (
	evGate = iota
	evShuttle
	evEviction
	evSwap
)

// observerEvent is one recorded callback: which method fired and its
// arguments (x,y,z mapped positionally).
type observerEvent struct {
	kind    int
	x, y, z int
}

// replayObserver records callbacks into a buffer so a candidate pass that
// runs concurrently with an earlier-indexed one can deliver its events to
// the user's Observer *after* that candidate's — preserving the sequential
// event order exactly. Only later-indexed candidates are buffered; the
// first candidate streams live, so observers that drive cancellation (the
// progress UI's ctx hooks) still abort the compile mid-pass.
//
// Methods are called from a single scheduling goroutine; replay happens
// after that goroutine is joined, so no locking is needed.
type replayObserver struct {
	events []observerEvent
}

// The recording methods run once per scheduled event inside a candidate
// pass — the same cadence as the scheduler's own inner loop — so they are
// budgeted hot paths: amortised append growth is the only allocation.
//
//mussti:hotpath
func (r *replayObserver) GateScheduled(done, total int) {
	r.events = append(r.events, observerEvent{kind: evGate, x: done, y: total})
}

//mussti:hotpath
func (r *replayObserver) Shuttle(q, from, to int) {
	r.events = append(r.events, observerEvent{kind: evShuttle, x: q, y: from, z: to})
}

//mussti:hotpath
func (r *replayObserver) Eviction(victim, from, to int) {
	r.events = append(r.events, observerEvent{kind: evEviction, x: victim, y: from, z: to})
}

//mussti:hotpath
func (r *replayObserver) SwapInserted(a, b int) {
	r.events = append(r.events, observerEvent{kind: evSwap, x: a, y: b})
}

// replay delivers the recorded events to obs in recording order.
//
//mussti:hotpath
func (r *replayObserver) replay(obs Observer) {
	for _, e := range r.events {
		switch e.kind {
		case evGate:
			obs.GateScheduled(e.x, e.y)
		case evShuttle:
			obs.Shuttle(e.x, e.y, e.z)
		case evEviction:
			obs.Eviction(e.x, e.y, e.z)
		case evSwap:
			obs.SwapInserted(e.x, e.y)
		}
	}
}
