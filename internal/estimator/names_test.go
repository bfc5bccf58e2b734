package estimator

import (
	"slices"
	"testing"
)

// TestRegistryHasStandardNames pins the names a suite accepts and the text
// of the error an unknown name gets: API layers return it to clients as is.
func TestRegistryHasStandardNames(t *testing.T) {
	if got, want := RegisteredNames(), []string{"CHAO92", "NOMINAL", "SWITCH", "V-CHAO", "VOTING"}; !slices.Equal(got, want) {
		t.Fatalf("RegisteredNames() = %v, want %v", got, want)
	}
	if err := ValidateNames(StandardNames()); err != nil {
		t.Fatalf("ValidateNames(standard) = %v", err)
	}
	for _, name := range []string{"NOPE", NameExtrapolate, "GT", ""} {
		err := ValidateNames([]string{NameVoting, name})
		want := `estimator: unknown estimator "` + name + `" (registered: [CHAO92 NOMINAL SWITCH V-CHAO VOTING])`
		if err == nil || err.Error() != want {
			t.Fatalf("ValidateNames(%q) = %v, want %s", name, err, want)
		}
	}
}

// TestNewUnknownName: NewSuite refuses a name that is not an estimator with
// the ValidateNames error.
func TestNewUnknownName(t *testing.T) {
	defer func() {
		const want = `estimator: NewSuite: estimator: unknown estimator "NOPE" (registered: [CHAO92 NOMINAL SWITCH V-CHAO VOTING])`
		if r := recover(); r != want {
			t.Fatalf("NewSuite panicked with %v, want %s", r, want)
		}
	}()
	NewSuite(3, SuiteConfig{Estimators: []string{NameSwitch, "NOPE"}})
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
