package dataset

import (
	"fmt"

	"dqm/internal/xrand"
)

// Restaurant mirrors the schema of the paper's restaurant dataset:
// Restaurant(id, name, address, city, category).
type Restaurant struct {
	ID       int
	Name     string
	Address  string
	City     string
	Category string
}

// RestaurantConfig sizes the generated dataset. The zero value is replaced
// by the paper's numbers: 858 records containing 106 duplicated restaurants
// (each restaurant duplicated at most once).
type RestaurantConfig struct {
	Records    int
	Duplicates int
	Seed       uint64
}

func (c *RestaurantConfig) setDefaults() {
	if c.Records == 0 {
		c.Records = 858
	}
	if c.Duplicates == 0 {
		c.Duplicates = 106
	}
	if c.Records < 2*c.Duplicates {
		panic(fmt.Sprintf("dataset: %d records cannot contain %d duplicate pairs", c.Records, c.Duplicates))
	}
}

// RestaurantData is the generated dataset plus its entity-resolution ground
// truth: DuplicatePairs holds index pairs (i, j), i < j, referring to the
// same real-world restaurant.
type RestaurantData struct {
	Records        []Restaurant
	DuplicatePairs [][2]int
}

// GenerateRestaurants synthesizes the restaurant dataset. Duplicates are
// created by perturbing a base record's name and address at a random level,
// so planted pairs span the whole similarity range — some are trivially
// caught by the heuristic window, some are genuinely ambiguous.
func GenerateRestaurants(cfg RestaurantConfig) *RestaurantData {
	cfg.setDefaults()
	r := xrand.New(cfg.Seed).SplitNamed("restaurant")

	base := cfg.Records - cfg.Duplicates
	records := make([]Restaurant, 0, cfg.Records)
	seen := make(map[string]struct{}, base)
	for len(records) < base {
		name := xrand.Choice(r, restaurantFirstWords) + " " + xrand.Choice(r, restaurantSecondWords)
		// Some restaurants carry a neighborhood qualifier, feeding the
		// token-reorder duplicate pattern from the paper's example.
		if r.Bernoulli(0.3) {
			name += " " + xrand.Choice(r, streetNames)
		}
		if _, dup := seen[name]; dup {
			continue
		}
		seen[name] = struct{}{}
		city := xrand.Choice(r, usCities)
		records = append(records, Restaurant{
			ID:       len(records),
			Name:     name,
			Address:  fmt.Sprintf("%d %s %s", 10+r.IntN(9900), xrand.Choice(r, streetNames), xrand.Choice(r, streetTypes)),
			City:     city.city,
			Category: xrand.Choice(r, restaurantCategories),
		})
	}

	// Duplicate a random subset of base records, each at most once.
	pairs := make([][2]int, 0, cfg.Duplicates)
	for _, bi := range r.SampleWithoutReplacement(base, cfg.Duplicates) {
		orig := records[bi]
		changes := 1 + r.IntN(3)
		dup := Restaurant{
			ID:       len(records),
			Name:     Perturb(r, orig.Name, changes),
			Address:  orig.Address,
			City:     orig.City,
			Category: orig.Category,
		}
		if r.Bernoulli(0.4) {
			dup.Address = Perturb(r, orig.Address, 1)
		}
		records = append(records, dup)
		pairs = append(pairs, [2]int{bi, dup.ID})
	}

	return &RestaurantData{Records: records, DuplicatePairs: pairs}
}

// Key returns the record's comparable surface form used by similarity
// heuristics: name plus address.
func (r Restaurant) Key() string { return r.Name + " " + r.Address }
