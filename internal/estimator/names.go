package estimator

import (
	"fmt"
	"slices"
)

// Canonical estimator names used across the suite, the experiment harness,
// CLI output and EXPERIMENTS.md. They match the labels in the paper's
// figures. This file is the single source of truth: a suite selects its
// estimators by these names, Estimates.ByName resolves through the same
// table, and the experiment report layer orders series with StandardNames —
// adding an estimator in one place cannot silently desync the others.
const (
	NameNominal = "NOMINAL"
	NameVoting  = "VOTING"
	NameChao92  = "CHAO92"
	NameVChao92 = "V-CHAO"
	NameSwitch  = "SWITCH"

	// NameExtrapolate labels the §2.2.3 predictive baseline in figures; it is
	// sample-driven rather than vote-stream-driven, so a suite cannot select
	// it.
	NameExtrapolate = "EXTRAPOL"
)

// Selection bits of a suite, one per estimator of standardEstimates.
const (
	selNominal uint8 = 1 << iota
	selVoting
	selChao92
	selVChao92
	selSwitch
)

// standardEstimates pairs each estimator's name with its selection bit and
// its accessor into an Estimates snapshot. The table drives ByName,
// StandardNames and ValidateNames, so they cannot drift.
var standardEstimates = []struct {
	name string
	bit  uint8
	get  func(Estimates) float64
}{
	{NameNominal, selNominal, func(e Estimates) float64 { return e.Nominal }},
	{NameVoting, selVoting, func(e Estimates) float64 { return e.Voting }},
	{NameChao92, selChao92, func(e Estimates) float64 { return e.Chao92 }},
	{NameVChao92, selVChao92, func(e Estimates) float64 { return e.VChao92 }},
	{NameSwitch, selSwitch, func(e Estimates) float64 { return e.Switch.Total }},
}

// StandardNames returns the estimator names in canonical figure order. The
// slice is fresh on every call; callers may modify it.
func StandardNames() []string {
	out := make([]string, len(standardEstimates))
	for i, s := range standardEstimates {
		out[i] = s.name
	}
	return out
}

// RegisteredNames returns every estimator name a suite accepts, sorted.
func RegisteredNames() []string {
	out := StandardNames()
	slices.Sort(out)
	return out
}

// ValidateNames checks that every name is an estimator, so API layers can
// reject a bad estimator selection before building a session.
func ValidateNames(names []string) error {
	for _, n := range names {
		if _, ok := selectionBit(n); !ok {
			return unknownName(n)
		}
	}
	return nil
}

// selectionBit returns the selection bit of the named estimator.
func selectionBit(name string) (uint8, bool) {
	for _, s := range standardEstimates {
		if s.name == name {
			return s.bit, true
		}
	}
	return 0, false
}

func unknownName(name string) error {
	return fmt.Errorf("estimator: unknown estimator %q (registered: %v)", name, RegisteredNames())
}
