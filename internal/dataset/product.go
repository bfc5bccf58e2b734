package dataset

import (
	"fmt"
	"strings"

	"dqm/internal/xrand"
)

// Retailer identifies which catalog a product row belongs to.
type Retailer uint8

const (
	// Amazon is the larger catalog (2336 rows in the paper).
	Amazon Retailer = iota
	// Google is the smaller catalog (1363 rows in the paper).
	Google
)

// String implements fmt.Stringer.
func (r Retailer) String() string {
	if r == Amazon {
		return "Amazon"
	}
	return "Google"
}

// Product mirrors the paper's schema:
// Product(retailer, id, name1, name2, vendor, price).
type Product struct {
	Retailer Retailer
	ID       int
	Name     string
	Vendor   string
	Price    float64
}

// ProductConfig sizes the two catalogs; defaults follow the paper
// (2336 Amazon rows, 1363 Google rows, 607 true matches).
type ProductConfig struct {
	AmazonRecords int
	GoogleRecords int
	Matches       int
	Seed          uint64
}

func (c *ProductConfig) setDefaults() {
	if c.AmazonRecords == 0 {
		c.AmazonRecords = 2336
	}
	if c.GoogleRecords == 0 {
		c.GoogleRecords = 1363
	}
	if c.Matches == 0 {
		c.Matches = 607
	}
	if c.Matches > c.AmazonRecords || c.Matches > c.GoogleRecords {
		panic(fmt.Sprintf("dataset: %d matches exceed catalog sizes (%d, %d)",
			c.Matches, c.AmazonRecords, c.GoogleRecords))
	}
}

// ProductData is the generated bipartite catalog plus ground truth:
// MatchPairs holds (amazonIndex, googleIndex) pairs referring to the same
// product. Indices are positions within the respective slices.
type ProductData struct {
	Amazon     []Product
	Google     []Product
	MatchPairs [][2]int
}

// GenerateProducts synthesizes the Amazon/Google catalogs. Matched products
// get vendor-specific renderings (retailer prefixes, edition reordering,
// version drift), which is what makes product matching harder than
// restaurant matching — the paper observed far more worker mistakes here.
func GenerateProducts(cfg ProductConfig) *ProductData {
	cfg.setDefaults()
	r := xrand.New(cfg.Seed).SplitNamed("product")

	type proto struct {
		brand, noun, edition, version string
		price                         float64
	}
	newProto := func() proto {
		return proto{
			brand:   xrand.Choice(r, productBrands),
			noun:    xrand.Choice(r, productNouns),
			edition: xrand.Choice(r, productEditions),
			version: xrand.Choice(r, productVersionSuffixes),
			price:   5 + float64(r.IntN(49500))/100,
		}
	}
	amazonName := func(p proto) string {
		return fmt.Sprintf("%s %s %s %s", p.brand, p.noun, p.edition, p.version)
	}
	googleName := func(p proto) string {
		// Google listings in the real dataset frequently lower-case, drop
		// the edition or move the version; model all three.
		name := fmt.Sprintf("%s %s", p.brand, p.noun)
		switch r.IntN(3) {
		case 0:
			name = fmt.Sprintf("%s %s %s", name, p.version, p.edition)
		case 1:
			name = fmt.Sprintf("%s %s", name, p.version)
		default:
			name = fmt.Sprintf("%s %s", name, strings.ToLower(p.edition))
		}
		if r.Bernoulli(0.5) {
			name = strings.ToLower(name)
		}
		if r.Bernoulli(0.25) {
			name = Perturb(r, name, 1)
		}
		return name
	}

	data := &ProductData{
		Amazon:     make([]Product, 0, cfg.AmazonRecords),
		Google:     make([]Product, 0, cfg.GoogleRecords),
		MatchPairs: make([][2]int, 0, cfg.Matches),
	}

	// Matched products appear in both catalogs.
	for i := 0; i < cfg.Matches; i++ {
		p := newProto()
		ai := len(data.Amazon)
		gi := len(data.Google)
		data.Amazon = append(data.Amazon, Product{
			Retailer: Amazon, ID: ai, Name: amazonName(p), Vendor: p.brand, Price: p.price,
		})
		// Prices drift between retailers.
		drift := 1 + (r.Float64()-0.5)*0.2
		data.Google = append(data.Google, Product{
			Retailer: Google, ID: gi, Name: googleName(p), Vendor: p.brand, Price: p.price * drift,
		})
		data.MatchPairs = append(data.MatchPairs, [2]int{ai, gi})
	}
	// Unmatched remainder of each catalog. Drawing from the same corpora
	// produces plenty of near-miss non-matches (same brand, different noun),
	// the false-positive bait that matters for the experiments.
	for len(data.Amazon) < cfg.AmazonRecords {
		p := newProto()
		data.Amazon = append(data.Amazon, Product{
			Retailer: Amazon, ID: len(data.Amazon), Name: amazonName(p), Vendor: p.brand, Price: p.price,
		})
	}
	for len(data.Google) < cfg.GoogleRecords {
		p := newProto()
		data.Google = append(data.Google, Product{
			Retailer: Google, ID: len(data.Google), Name: googleName(p), Vendor: p.brand, Price: p.price,
		})
	}
	return data
}

// Key returns the comparable surface form for similarity heuristics.
func (p Product) Key() string { return p.Name + " " + p.Vendor }
