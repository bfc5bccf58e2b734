package dataset

import (
	"testing"
)

func TestGroundTruthBasics(t *testing.T) {
	gt := NewGroundTruth(10, []int{2, 5, 7})
	if gt.N() != 10 || gt.NumDirty() != 3 {
		t.Fatalf("N=%d dirty=%d", gt.N(), gt.NumDirty())
	}
	if !gt.IsDirty(2) || !gt.IsDirty(5) || !gt.IsDirty(7) || gt.IsDirty(0) {
		t.Fatal("IsDirty wrong")
	}
	items := gt.DirtyItems()
	if len(items) != 3 || items[0] != 2 || items[1] != 5 || items[2] != 7 {
		t.Fatalf("DirtyItems = %v", items)
	}
}

func TestGroundTruthCountErrors(t *testing.T) {
	gt := NewGroundTruth(10, []int{1, 2})
	tp, fp := gt.CountErrors([]int{1, 3, 2, 4})
	if tp != 2 || fp != 2 {
		t.Fatalf("tp=%d fp=%d", tp, fp)
	}
}

func TestGroundTruthPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range dirty index did not panic")
		}
	}()
	NewGroundTruth(5, []int{5})
}

func TestPlantedPopulation(t *testing.T) {
	p := NewPlantedPopulation(100, 20, 1, "test")
	if p.N() != 100 || p.NumDirty() != 20 {
		t.Fatalf("N=%d dirty=%d", p.N(), p.NumDirty())
	}
	// Deterministic per seed.
	q := NewPlantedPopulation(100, 20, 1, "test")
	for i := 0; i < 100; i++ {
		if p.Truth.IsDirty(i) != q.Truth.IsDirty(i) {
			t.Fatal("same seed produced different plantings")
		}
	}
	// Different seeds differ (with overwhelming probability).
	r := NewPlantedPopulation(100, 20, 2, "test")
	same := true
	for i := 0; i < 100; i++ {
		if p.Truth.IsDirty(i) != r.Truth.IsDirty(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical plantings")
	}
}

func TestPlantedPopulationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overfull planting did not panic")
		}
	}()
	NewPlantedPopulation(10, 11, 1, "bad")
}

func TestPaperPopulations(t *testing.T) {
	tests := []struct {
		name     string
		pop      *Population
		n, dirty int
	}{
		{"restaurant", RestaurantCandidates(1), 1264, 12},
		{"product", ProductCandidates(1), 13022, 607},
		{"address", AddressPopulation(1), 1000, 90},
		{"simulation", SimulationPopulation(1), 1000, 100},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.pop.N() != tt.n || tt.pop.NumDirty() != tt.dirty {
				t.Fatalf("got %d/%d, want %d/%d", tt.pop.N(), tt.pop.NumDirty(), tt.n, tt.dirty)
			}
		})
	}
}

func TestGenerateRestaurants(t *testing.T) {
	data := GenerateRestaurants(RestaurantConfig{Seed: 3})
	if len(data.Records) != 858 {
		t.Fatalf("records = %d, want 858", len(data.Records))
	}
	if len(data.DuplicatePairs) != 106 {
		t.Fatalf("duplicate pairs = %d, want 106", len(data.DuplicatePairs))
	}
	usedAsDup := make(map[int]bool)
	for _, p := range data.DuplicatePairs {
		a, b := p[0], p[1]
		if a < 0 || a >= len(data.Records) || b < 0 || b >= len(data.Records) || a == b {
			t.Fatalf("invalid pair %v", p)
		}
		// Each restaurant duplicated at most once.
		if usedAsDup[a] || usedAsDup[b] {
			t.Fatalf("record reused across duplicate pairs: %v", p)
		}
		usedAsDup[a], usedAsDup[b] = true, true
		// The duplicate must actually differ from its original.
		if data.Records[a].Name == data.Records[b].Name {
			t.Fatalf("duplicate pair %v has identical names", p)
		}
	}
	// IDs are positional.
	for i, r := range data.Records {
		if r.ID != i {
			t.Fatalf("record %d has ID %d", i, r.ID)
		}
		if r.Name == "" || r.Address == "" || r.City == "" || r.Category == "" {
			t.Fatalf("record %d has empty fields: %+v", i, r)
		}
	}
}

func TestGenerateRestaurantsDeterministic(t *testing.T) {
	a := GenerateRestaurants(RestaurantConfig{Seed: 9})
	b := GenerateRestaurants(RestaurantConfig{Seed: 9})
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs across identical seeds", i)
		}
	}
	c := GenerateRestaurants(RestaurantConfig{Seed: 10})
	if a.Records[0] == c.Records[0] && a.Records[1] == c.Records[1] && a.Records[2] == c.Records[2] {
		t.Fatal("different seeds produced identical leading records")
	}
}

func TestGenerateRestaurantsPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	GenerateRestaurants(RestaurantConfig{Records: 10, Duplicates: 6})
}

func TestGenerateProducts(t *testing.T) {
	data := GenerateProducts(ProductConfig{Seed: 4})
	if len(data.Amazon) != 2336 || len(data.Google) != 1363 {
		t.Fatalf("catalog sizes %d/%d", len(data.Amazon), len(data.Google))
	}
	if len(data.MatchPairs) != 607 {
		t.Fatalf("matches = %d, want 607", len(data.MatchPairs))
	}
	for _, mp := range data.MatchPairs {
		if mp[0] < 0 || mp[0] >= len(data.Amazon) || mp[1] < 0 || mp[1] >= len(data.Google) {
			t.Fatalf("invalid match %v", mp)
		}
		// Matched products share the brand even when names drift.
		if data.Amazon[mp[0]].Vendor != data.Google[mp[1]].Vendor {
			t.Fatalf("match %v has different vendors", mp)
		}
	}
	for _, p := range data.Amazon {
		if p.Retailer != Amazon || p.Name == "" || p.Price <= 0 {
			t.Fatalf("bad amazon row %+v", p)
		}
	}
	for _, p := range data.Google {
		if p.Retailer != Google || p.Name == "" || p.Price <= 0 {
			t.Fatalf("bad google row %+v", p)
		}
	}
	if Amazon.String() != "Amazon" || Google.String() != "Google" {
		t.Fatal("retailer strings wrong")
	}
}

func TestGenerateProductsSmallConfig(t *testing.T) {
	data := GenerateProducts(ProductConfig{AmazonRecords: 50, GoogleRecords: 30, Matches: 10, Seed: 5})
	if len(data.Amazon) != 50 || len(data.Google) != 30 || len(data.MatchPairs) != 10 {
		t.Fatal("small config sizes wrong")
	}
}

func TestGenerateProductsPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	GenerateProducts(ProductConfig{AmazonRecords: 5, GoogleRecords: 5, Matches: 6})
}

func TestGenerateAddresses(t *testing.T) {
	data := GenerateAddresses(AddressConfig{Seed: 6})
	if len(data.Records) != 1000 {
		t.Fatalf("records = %d", len(data.Records))
	}
	if data.Truth.NumDirty() != 90 {
		t.Fatalf("errors = %d, want 90", data.Truth.NumDirty())
	}
	// Every error class from the Figure 1 taxonomy must be present.
	kinds := make(map[AddressErrorKind]int)
	for i, a := range data.Records {
		if data.Truth.IsDirty(i) != (a.Kind != AddressOK) {
			t.Fatalf("record %d: truth and kind disagree (%v)", i, a.Kind)
		}
		kinds[a.Kind]++
	}
	for _, k := range []AddressErrorKind{
		AddressMissingValue, AddressInvalidCity, AddressInvalidZip,
		AddressFDViolation, AddressNonHome, AddressFakeValid,
	} {
		if kinds[k] == 0 {
			t.Fatalf("error kind %v not planted", k)
		}
	}
}

func TestAddressFDViolationActuallyViolates(t *testing.T) {
	data := GenerateAddresses(AddressConfig{Seed: 7})
	portlandZips := make(map[string]bool)
	for _, z := range usCities[0].zips {
		portlandZips[z] = true
	}
	for _, a := range data.Records {
		if a.Kind != AddressFDViolation {
			continue
		}
		if !portlandZips[a.Zip] {
			t.Fatalf("FD violation %v lost its Portland zip", a)
		}
		if a.City == "Portland" {
			t.Fatalf("FD violation %v still claims Portland", a)
		}
	}
}

func TestAddressCleanRecordsWellFormed(t *testing.T) {
	data := GenerateAddresses(AddressConfig{Seed: 8})
	for i, a := range data.Records {
		if data.Truth.IsDirty(i) {
			continue
		}
		if a.Number <= 0 || a.Street == "" || a.City != "Portland" || a.State != "OR" || len(a.Zip) != 5 {
			t.Fatalf("clean record %d malformed: %+v", i, a)
		}
	}
}

func TestAddressString(t *testing.T) {
	a := Address{Number: 123, Street: "N Alder St", Unit: "Apt 4", City: "Portland", State: "OR", Zip: "97201"}
	want := "123 N Alder St Apt 4, Portland, OR, 97201"
	if got := a.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	missing := Address{Street: "N Alder St", City: "Portland", State: "OR", Zip: "97201"}
	if got := missing.String(); got != "N Alder St, Portland, OR, 97201" {
		t.Fatalf("missing-number String() = %q", got)
	}
}

func TestAddressErrorKindStrings(t *testing.T) {
	if AddressOK.String() != "ok" || AddressFakeValid.String() != "fake-valid" {
		t.Fatal("kind strings wrong")
	}
	if AddressErrorKind(99).String() != "AddressErrorKind(99)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestAddressDifficultyOrdering(t *testing.T) {
	// Fake-valid entries are the hardest; missing values the easiest.
	if AddressFakeValid.Difficulty() <= AddressMissingValue.Difficulty() {
		t.Fatal("difficulty ordering violated")
	}
	if AddressOK.Difficulty() != 1 {
		t.Fatal("clean difficulty must be neutral")
	}
}
