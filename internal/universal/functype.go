package universal

import "slmem/internal/spec"

// FuncType builds a simple type from closures, for types without a
// predefined implementation. The commute/overwrite relations must satisfy
// Definition 33 (check with ValidateSimple); CommutesFn may be nil when
// OverwritesFn already relates every pair of invocations one way or the
// other. Both closures must be deterministic, pure functions of their
// arguments, as Type requires.
type FuncType struct {
	// TypeName identifies the type.
	TypeName string
	// Sequential is the sequential specification.
	Sequential spec.Spec
	// CommutesFn reports whether two invocations commute (optional).
	CommutesFn func(descA string, pidA int, descB string, pidB int) bool
	// OverwritesFn reports whether invocation A overwrites invocation B.
	OverwritesFn func(descA string, pidA int, descB string, pidB int) bool
}

var _ Type = FuncType{}

// Name implements Type.
func (t FuncType) Name() string { return t.TypeName }

// Spec implements Type.
func (t FuncType) Spec() spec.Spec { return t.Sequential }

// Commutes implements Type.
func (t FuncType) Commutes(descA string, pidA int, descB string, pidB int) bool {
	if t.CommutesFn == nil {
		return false
	}
	return t.CommutesFn(descA, pidA, descB, pidB)
}

// Overwrites implements Type.
func (t FuncType) Overwrites(descA string, pidA int, descB string, pidB int) bool {
	if t.OverwritesFn == nil {
		return false
	}
	return t.OverwritesFn(descA, pidA, descB, pidB)
}

// FuncSpec builds a spec.Spec from closures, pairing with FuncType for
// fully custom simple types.
type FuncSpec struct {
	// SpecName identifies the type.
	SpecName string
	// InitialState is the canonical initial state s0.
	InitialState string
	// ApplyFn is the transition function δ.
	ApplyFn func(state string, pid int, desc string) (next, response string, err error)
}

var _ spec.Spec = FuncSpec{}

// Name implements spec.Spec.
func (s FuncSpec) Name() string { return s.SpecName }

// Initial implements spec.Spec.
func (s FuncSpec) Initial() string { return s.InitialState }

// Apply implements spec.Spec.
func (s FuncSpec) Apply(state string, pid int, desc string) (string, string, error) {
	return s.ApplyFn(state, pid, desc)
}
