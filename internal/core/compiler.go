package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mussti/internal/arch"
	"mussti/internal/circuit"
)

// Compiler is a nameable compilation strategy: anything that can schedule a
// circuit onto a Target machine and report the unified Result. The four
// built-in compilers — "mussti" here, "murali"/"dai"/"mqt" in
// internal/baseline — register themselves at init; out-of-tree compilers
// join through RegisterCompiler and automatically appear in every
// experiment, the measurement cache and CSV output of the eval harness.
type Compiler interface {
	// Name is the registry identifier, e.g. "mussti". Lower-case, stable,
	// unique; it keys cache entries and CLI flags.
	Name() string
	// Compile schedules c onto the target. A nil cfg MUST be treated as
	// exactly DefaultConfigFor(the compiler): the config declared via
	// ConfigDefaulter, or the zero CompileConfig otherwise — harnesses rely
	// on that equivalence when resolving and cache-keying nil configs, so a
	// compiler whose defaults differ from the zero config must implement
	// ConfigDefaulter rather than special-case nil. Compilers must not
	// mutate cfg. A compiler that does not support the target's machine
	// shape returns an error.
	Compile(ctx context.Context, c *circuit.Circuit, t arch.Target, cfg *CompileConfig) (*Result, error)
}

// DisplayNamer is optionally implemented by compilers whose human-facing
// label differs from their registry name — the paper's table labels
// ("MUSS-TI", "QCCD-Murali", ...). CompilerLabel falls back to Name.
type DisplayNamer interface {
	DisplayName() string
}

// ConfigDefaulter is implemented by compilers whose default configuration
// differs from the zero CompileConfig (MUSS-TI defaults to SABRE mapping +
// SWAP insertion, which zero fields cannot express). It is not optional for
// such compilers: Compile's nil-config contract and the harness's cache
// keys both define "nil config" as DefaultConfigFor, which falls back to
// the zero value when this interface is absent.
type ConfigDefaulter interface {
	DefaultConfig() CompileConfig
}

// TargetSupporter is optionally implemented by compilers restricted to
// certain machine shapes (the baselines target only the monolithic grid),
// so harnesses can skip an incompatible compiler up front — with a note —
// instead of failing a whole experiment mid-run. Compile must still reject
// unsupported targets itself; this is advisory.
type TargetSupporter interface {
	SupportsTarget(t arch.Target) bool
}

// SupportsTarget reports whether the compiler declares support for the
// target's machine shape; compilers that don't implement TargetSupporter
// are assumed to support anything (and error from Compile if not).
func SupportsTarget(c Compiler, t arch.Target) bool {
	if s, ok := c.(TargetSupporter); ok {
		return s.SupportsTarget(t)
	}
	return true
}

// CompilerLabel returns the compiler's human-facing label: DisplayName when
// implemented, Name otherwise. Measurement rows and table columns use it.
func CompilerLabel(c Compiler) string {
	if d, ok := c.(DisplayNamer); ok {
		return d.DisplayName()
	}
	return c.Name()
}

// DefaultConfigFor returns the compiler's default configuration:
// DefaultConfig when implemented, the zero CompileConfig otherwise.
func DefaultConfigFor(c Compiler) CompileConfig {
	if d, ok := c.(ConfigDefaulter); ok {
		return d.DefaultConfig()
	}
	return CompileConfig{}
}

// The process-wide compiler registry. Registration order is preserved so
// Compilers() is deterministic: package init order registers "mussti" first,
// then the three baselines.
var (
	registryMu   sync.RWMutex
	registry     = make(map[string]Compiler)
	registryList []Compiler
)

// RegisterCompiler adds a compiler to the process-wide registry. It errors
// on an empty name or a name already taken; registration never replaces.
func RegisterCompiler(c Compiler) error {
	if c == nil {
		return fmt.Errorf("core: RegisterCompiler(nil)")
	}
	name := c.Name()
	if name == "" {
		return fmt.Errorf("core: compiler %T has an empty name", c)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("core: compiler %q already registered", name)
	}
	registry[name] = c
	registryList = append(registryList, c)
	return nil
}

// MustRegisterCompiler is RegisterCompiler for init-time registration of
// known-good compilers; it panics on error.
func MustRegisterCompiler(c Compiler) {
	if err := RegisterCompiler(c); err != nil {
		panic(err)
	}
}

// LookupCompiler returns the registered compiler with the given name. The
// error lists the registered names, so a CLI typo is self-explaining.
func LookupCompiler(name string) (Compiler, error) {
	registryMu.RLock()
	c, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		names := CompilerNames()
		sort.Strings(names)
		return nil, fmt.Errorf("core: unknown compiler %q (registered: %v)", name, names)
	}
	return c, nil
}

// Compilers returns the registered compilers in registration order. The
// slice is a copy; callers may keep or mutate it freely.
func Compilers() []Compiler {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Compiler, len(registryList))
	copy(out, registryList)
	return out
}

// CompilerNames returns the registered names in registration order.
func CompilerNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, len(registryList))
	for i, c := range registryList {
		out[i] = c.Name()
	}
	return out
}

// musstiCompiler adapts CompileContext to the Compiler interface. It accepts
// both machine shapes: an EML-QCCD *Device directly, and a *Grid through the
// zone/module adapter (Table 2 applies MUSS-TI "on these standard QCCD
// structures").
type musstiCompiler struct{}

func (musstiCompiler) Name() string        { return "mussti" }
func (musstiCompiler) DisplayName() string { return "MUSS-TI" }

// DefaultConfig is the paper's headline configuration (DefaultOptions).
func (musstiCompiler) DefaultConfig() CompileConfig { return DefaultOptions() }

// SupportsTarget: both machine shapes of the paper.
func (musstiCompiler) SupportsTarget(t arch.Target) bool {
	switch t.(type) {
	case *arch.Device, *arch.Grid:
		return true
	}
	return false
}

func (musstiCompiler) Compile(ctx context.Context, c *circuit.Circuit, t arch.Target, cfg *CompileConfig) (*Result, error) {
	d, err := deviceFor(t)
	if err != nil {
		return nil, err
	}
	opts := DefaultOptions()
	if cfg != nil {
		opts = *cfg
	}
	return CompileContext(ctx, c, d, opts)
}

// deviceFor resolves a Target to the EML-QCCD device MUSS-TI schedules on:
// a *Device directly, or a *Grid through the zone/module adapter.
func deviceFor(t arch.Target) (*arch.Device, error) {
	switch tt := t.(type) {
	case *arch.Device:
		return tt, nil
	case *arch.Grid:
		return tt.Device(), nil
	}
	return nil, fmt.Errorf("core: mussti cannot target %T (want *arch.Device or *arch.Grid)", t)
}

func init() {
	MustRegisterCompiler(musstiCompiler{})
}
