package rules

import (
	"testing"

	"dqm/internal/dataset"
)

func cleanAddr() dataset.Address {
	return dataset.Address{
		Number: 123, Street: "N Alder St", City: "Portland", State: "OR", Zip: "97201",
	}
}

func TestMissingValue(t *testing.T) {
	r := MissingValue{}
	if r.Check(cleanAddr()) {
		t.Fatal("clean address flagged")
	}
	for _, mutate := range []func(*dataset.Address){
		func(a *dataset.Address) { a.Number = 0 },
		func(a *dataset.Address) { a.Street = "" },
		func(a *dataset.Address) { a.City = " " },
		func(a *dataset.Address) { a.State = "" },
		func(a *dataset.Address) { a.Zip = "" },
	} {
		a := cleanAddr()
		mutate(&a)
		if !r.Check(a) {
			t.Fatalf("missing field not flagged: %+v", a)
		}
	}
}

func TestZipFormat(t *testing.T) {
	r := ZipFormat{}
	if r.Check(cleanAddr()) {
		t.Fatal("clean zip flagged")
	}
	for _, zip := range []string{"9720", "972011", "972O1", "abcde"} {
		a := cleanAddr()
		a.Zip = zip
		if !r.Check(a) {
			t.Fatalf("bad zip %q not flagged", zip)
		}
	}
	// Empty zip is MissingValue's responsibility.
	a := cleanAddr()
	a.Zip = ""
	if r.Check(a) {
		t.Fatal("empty zip double-flagged by format rule")
	}
}

func TestZipRange(t *testing.T) {
	r := ZipRange{}
	if r.Check(cleanAddr()) {
		t.Fatal("Portland zip flagged")
	}
	a := cleanAddr()
	a.Zip = "00201" // out-of-range prefix planted by the generator
	if !r.Check(a) {
		t.Fatal("out-of-range prefix not flagged")
	}
	a.Zip = "9720X" // malformed → format rule's job
	if r.Check(a) {
		t.Fatal("malformed zip double-flagged by range rule")
	}
}

func TestCityNameAndStateCode(t *testing.T) {
	if (CityName{}).Check(cleanAddr()) {
		t.Fatal("known city flagged")
	}
	a := cleanAddr()
	a.City = "Portlnad"
	if !(CityName{}).Check(a) {
		t.Fatal("misspelled city not flagged")
	}
	b := cleanAddr()
	b.State = "WA"
	if !(StateCode{}).Check(b) {
		t.Fatal("wrong state not flagged")
	}
	if (StateCode{}).Check(cleanAddr()) {
		t.Fatal("correct state flagged")
	}
}

func TestZipCityFD(t *testing.T) {
	r := ZipCityFD{}
	if r.Check(cleanAddr()) {
		t.Fatal("consistent zip/city flagged")
	}
	a := cleanAddr()
	a.City = "Seattle"
	a.State = "WA"
	if !r.Check(a) {
		t.Fatal("FD violation (Portland zip, Seattle city) not flagged")
	}
}

func TestBusinessKeyword(t *testing.T) {
	r := BusinessKeyword{}
	if r.Check(cleanAddr()) {
		t.Fatal("home address flagged as business")
	}
	a := cleanAddr()
	a.Street = "Alder Distribution Center"
	if !r.Check(a) {
		t.Fatal("business address not flagged")
	}
	b := cleanAddr()
	b.Unit = "Suite 400"
	if !r.Check(b) {
		t.Fatal("suite unit not flagged")
	}
}

func TestDetectorAgainstGenerator(t *testing.T) {
	data := dataset.GenerateAddresses(dataset.AddressConfig{Seed: 11})
	det := NewDetector()

	var flagged []int
	for i, a := range data.Records {
		if det.Dirty(a) {
			flagged = append(flagged, i)
		}
	}
	tp, fp := data.Truth.CountErrors(flagged)

	// The rules must be clean-safe: no false positives on generated records
	// (every rule encodes a true constraint of the domain).
	if fp != 0 {
		for _, i := range flagged {
			if !data.Truth.IsDirty(i) {
				for _, r := range det.Rules {
					if r.Check(data.Records[i]) {
						t.Logf("false positive %d: %v -> %s", i, data.Records[i], r.Name())
					}
				}
			}
		}
		t.Fatalf("%d false positives from the rule detector", fp)
	}
	// Rules catch a substantial share…
	if tp < data.Truth.NumDirty()/2 {
		t.Fatalf("rules caught only %d/%d errors", tp, data.Truth.NumDirty())
	}
	// …but are structurally blind to the fake-valid long tail (the paper's
	// point: the rule set is incomplete).
	missed := 0
	fakeMissed := 0
	flaggedSet := make(map[int]bool, len(flagged))
	for _, i := range flagged {
		flaggedSet[i] = true
	}
	for i, a := range data.Records {
		if data.Truth.IsDirty(i) && !flaggedSet[i] {
			missed++
			if a.Kind == dataset.AddressFakeValid {
				fakeMissed++
			}
		}
	}
	if missed == 0 {
		t.Fatal("rule set unexpectedly complete; the long tail disappeared")
	}
	if fakeMissed == 0 {
		t.Fatal("expected fake-valid addresses among the misses")
	}
}

// TestDetectorViolationNames: the catalog rule named zip-city-fd flags a
// record whose city does not match its zip, a detector over it or over the
// whole catalog fires, and neither fires on a clean record.
func TestDetectorViolationNames(t *testing.T) {
	a := cleanAddr()
	a.City = "Seattle" // FD violation AND wrong state for the zip
	var fd Rule
	for _, r := range AllRules() {
		if r.Name() == "zip-city-fd" {
			fd = r
		}
	}
	if fd == nil {
		t.Fatal("catalog has no zip-city-fd rule")
	}
	for _, det := range []*Detector{NewDetector(fd), NewDetector()} {
		if !det.Dirty(a) {
			t.Fatalf("detector over %d rules missed the zip-city-fd violation", len(det.Rules))
		}
		if det.Dirty(cleanAddr()) {
			t.Fatalf("detector over %d rules flagged a clean address", len(det.Rules))
		}
	}
}

func TestAllRulesStable(t *testing.T) {
	a, b := AllRules(), AllRules()
	if len(a) != len(b) || len(a) < 6 {
		t.Fatalf("rule catalog unstable or too small: %d", len(a))
	}
	seen := make(map[string]bool)
	for i := range a {
		if a[i].Name() != b[i].Name() {
			t.Fatal("catalog order unstable")
		}
		if seen[a[i].Name()] {
			t.Fatalf("duplicate rule name %q", a[i].Name())
		}
		seen[a[i].Name()] = true
	}
}
