// Package rules implements rule-based error detection in the style of
// Guided Data Repair, the paper's §1 motivating example: integrity rules
// catch missing values and functional-dependency violations (records r1–r3
// of Figure 1) but are structurally blind to misspellings in valid formats,
// non-home addresses and fabricated entries (r4–r6) — the "long tail" that
// motivates estimating what the rules missed.
//
// The rules double as the members of algorithmic cleaning committees
// (package algoclean): each rule is a deterministic, semi-independent error
// detector whose judgments can be fed to the estimators exactly like worker
// votes, the paper's §8 extension.
package rules

import (
	"strings"

	"dqm/internal/dataset"
)

// Rule is one integrity check over an address record. Check returns true
// when the record VIOLATES the rule (i.e. is detected as dirty).
type Rule interface {
	Name() string
	Check(a dataset.Address) bool
}

// knownCities maps lower-cased city names to their state, the reference
// data behind the city/state and FD rules. Mirrors the corpus used by the
// generator — in a real deployment this would be a postal reference table.
var knownCities = map[string]string{
	"portland": "OR", "seattle": "WA", "san francisco": "CA",
	"new york": "NY", "atlanta": "GA", "chicago": "IL", "boston": "MA",
	"austin": "TX", "denver": "CO", "nashville": "TN",
}

// zipPrefixCity maps 3-digit zip prefixes to the expected city, encoding
// the functional dependency zip → (city, state) for the corpus.
var zipPrefixCity = map[string]string{
	"972": "portland", "981": "seattle", "941": "san francisco",
	"100": "new york", "303": "atlanta", "606": "chicago",
	"021": "boston", "787": "austin", "802": "denver", "372": "nashville",
}

// MissingValue flags records with an empty required field (Figure 1: r1,
// r2).
type MissingValue struct{}

// Name implements Rule.
func (MissingValue) Name() string { return "missing-value" }

// Check implements Rule.
func (MissingValue) Check(a dataset.Address) bool {
	return a.Number <= 0 || strings.TrimSpace(a.Street) == "" ||
		strings.TrimSpace(a.City) == "" || strings.TrimSpace(a.State) == "" ||
		strings.TrimSpace(a.Zip) == ""
}

// ZipFormat flags zips that are not exactly five digits (Figure 1: r3, r4).
type ZipFormat struct{}

// Name implements Rule.
func (ZipFormat) Name() string { return "zip-format" }

// Check implements Rule.
func (ZipFormat) Check(a dataset.Address) bool {
	if a.Zip == "" {
		return false // MissingValue's job; rules stay orthogonal
	}
	if len(a.Zip) != 5 {
		return true
	}
	for i := 0; i < 5; i++ {
		if a.Zip[i] < '0' || a.Zip[i] > '9' {
			return true
		}
	}
	return false
}

// ZipRange flags well-formed zips whose prefix is not assigned to any known
// city (e.g. the "00…" prefixes the generator plants).
type ZipRange struct{}

// Name implements Rule.
func (ZipRange) Name() string { return "zip-range" }

// Check implements Rule.
func (ZipRange) Check(a dataset.Address) bool {
	if len(a.Zip) != 5 || (ZipFormat{}).Check(a) {
		return false
	}
	_, ok := zipPrefixCity[a.Zip[:3]]
	return !ok
}

// CityName flags city names absent from the reference table (misspellings;
// Figure 1: r3, r4).
type CityName struct{}

// Name implements Rule.
func (CityName) Name() string { return "city-name" }

// Check implements Rule.
func (CityName) Check(a dataset.Address) bool {
	if a.City == "" {
		return false
	}
	_, ok := knownCities[strings.ToLower(a.City)]
	return !ok
}

// StateCode flags state codes that do not match the reference state for
// the claimed city.
type StateCode struct{}

// Name implements Rule.
func (StateCode) Name() string { return "state-code" }

// Check implements Rule.
func (StateCode) Check(a dataset.Address) bool {
	if a.City == "" || a.State == "" {
		return false
	}
	want, ok := knownCities[strings.ToLower(a.City)]
	return ok && want != a.State
}

// ZipCityFD enforces the functional dependency zip → (city, state)
// (Figure 1: r1, r3, r6).
type ZipCityFD struct{}

// Name implements Rule.
func (ZipCityFD) Name() string { return "zip-city-fd" }

// Check implements Rule.
func (ZipCityFD) Check(a dataset.Address) bool {
	if len(a.Zip) != 5 || a.City == "" {
		return false
	}
	wantCity, ok := zipPrefixCity[a.Zip[:3]]
	if !ok {
		return false // ZipRange's job
	}
	return strings.ToLower(a.City) != wantCity
}

// BusinessKeyword flags street lines containing business-facility keywords
// (Figure 1: r5, "not a home address"). This is a heuristic rule — exactly
// the kind a careful engineer might add — and it still misses fabricated
// home-style addresses (r6).
type BusinessKeyword struct{}

// Name implements Rule.
func (BusinessKeyword) Name() string { return "business-keyword" }

var businessKeywords = []string{
	"warehouse", "distribution", "office park", "mall", "plaza",
	"storage", "industrial", "shopping center", "suite",
}

// Check implements Rule.
func (BusinessKeyword) Check(a dataset.Address) bool {
	line := strings.ToLower(a.Street + " " + a.Unit)
	for _, kw := range businessKeywords {
		if strings.Contains(line, kw) {
			return true
		}
	}
	return false
}

// AllRules returns the full rule catalog in a stable order.
func AllRules() []Rule {
	return []Rule{
		MissingValue{}, ZipFormat{}, ZipRange{}, CityName{}, StateCode{},
		ZipCityFD{}, BusinessKeyword{},
	}
}

// Detector applies a rule set to records.
type Detector struct {
	Rules []Rule
}

// NewDetector builds a detector over the given rules (AllRules when empty).
func NewDetector(rs ...Rule) *Detector {
	if len(rs) == 0 {
		rs = AllRules()
	}
	return &Detector{Rules: rs}
}

// Dirty reports whether any rule fires.
func (d *Detector) Dirty(a dataset.Address) bool {
	for _, r := range d.Rules {
		if r.Check(a) {
			return true
		}
	}
	return false
}
