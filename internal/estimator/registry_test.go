package estimator

import (
	"reflect"
	"testing"

	"dqm/internal/votes"
)

func TestRegistryHasStandardNames(t *testing.T) {
	for _, name := range StandardNames() {
		if _, ok := Lookup(name); !ok {
			t.Errorf("standard estimator %q not registered", name)
		}
	}
	if err := ValidateNames(StandardNames()); err != nil {
		t.Fatalf("ValidateNames(standard) = %v", err)
	}
	if err := ValidateNames([]string{"NOPE"}); err == nil {
		t.Fatal("ValidateNames accepted an unknown name")
	}
}

func TestNewUnknownName(t *testing.T) {
	if _, err := New("NOPE", Env{N: 3}); err == nil {
		t.Fatal("New accepted an unknown name")
	}
}

func TestSuiteSelection(t *testing.T) {
	s := NewSuite(10, SuiteConfig{Estimators: []string{NameVoting, NameSwitch}})
	if got, want := s.Names(), []string{NameVoting, NameSwitch}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := 0; i < 6; i++ {
		s.Observe(votes.Vote{Item: i % 3, Worker: i, Label: votes.Dirty})
	}
	s.EndTask()
	est := s.EstimateAll()
	if est.Voting == 0 || est.Switch.Total == 0 {
		t.Fatalf("selected members not evaluated: %+v", est)
	}
	// Unselected members keep their zero value.
	if est.Chao92 != 0 || est.VChao92 != 0 {
		t.Fatalf("unselected members evaluated: %+v", est)
	}
}

// TestStandaloneEstimators builds each standard estimator without a suite
// (nil shared matrix) and checks it ingests its own votes.
func TestStandaloneEstimators(t *testing.T) {
	for _, name := range StandardNames() {
		e, err := New(name, Env{N: 5, Config: SuiteConfig{}.normalize()})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		// Two dirty votes per item, so the vChao92 shift does not drop every
		// frequency class.
		for w := 0; w < 2; w++ {
			for i := 0; i < 5; i++ {
				e.Observe(votes.Vote{Item: i, Worker: w, Label: votes.Dirty})
			}
			e.EndTask()
		}
		if got := e.Estimate(); got == 0 {
			t.Errorf("%s standalone estimate = 0 after 10 dirty votes", name)
		}
		e.Reset()
		if got := e.Estimate(); got != 0 {
			t.Errorf("%s estimate after Reset = %v, want 0", name, got)
		}
	}
}

// TestCustomEstimatorExtra registers a toy estimator and checks it flows
// through suite evaluation into Estimates.Extra and ByName.
func TestCustomEstimatorExtra(t *testing.T) {
	const name = "TEST-COVERAGE"
	if _, ok := Lookup(name); !ok {
		Register(name, func(env Env) Estimator {
			return newMatrixMember(env, name, false, func(m *votes.Matrix, _ SuiteConfig) float64 {
				return m.Coverage() * float64(m.NumItems())
			})
		})
	}
	s := NewSuite(4, SuiteConfig{Estimators: []string{NameVoting, name}})
	s.Observe(votes.Vote{Item: 1, Worker: 0, Label: votes.Dirty})
	s.EndTask()
	est := s.EstimateAll()
	if got := est.Extra[name]; got != 1 {
		t.Fatalf("Extra[%q] = %v, want 1 (one of four items seen)", name, got)
	}
	if got := est.ByName(name); got != 1 {
		t.Fatalf("ByName(%q) = %v, want 1", name, got)
	}
}

func TestByNameTableMatchesStandardNames(t *testing.T) {
	e := Estimates{Nominal: 1, Voting: 2, Chao92: 3, VChao92: 4, Switch: SwitchEstimate{Total: 5}}
	want := map[string]float64{
		NameNominal: 1, NameVoting: 2, NameChao92: 3, NameVChao92: 4, NameSwitch: 5,
	}
	for _, name := range StandardNames() {
		if got := e.ByName(name); got != want[name] {
			t.Errorf("ByName(%q) = %v, want %v", name, got, want[name])
		}
	}
}
