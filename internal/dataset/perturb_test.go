package dataset

import (
	"strings"
	"testing"

	"dqm/internal/xrand"
)

func TestTypoChangesString(t *testing.T) {
	r := xrand.New(1)
	for i := 0; i < 200; i++ {
		s := "Golden Dragon"
		if got := typo(r, s); got == s {
			t.Fatalf("typo left %q unchanged", s)
		}
	}
	// Strings shorter than 2 runes cannot be typo'd.
	if got := typo(r, "a"); got != "a" {
		t.Fatalf("single-rune typo = %q", got)
	}
}

func TestAbbreviate(t *testing.T) {
	r := xrand.New(2)
	got := abbreviate(r, "Main Street")
	if got != "Main St" {
		t.Fatalf("abbreviate = %q", got)
	}
	// No expandable token: unchanged.
	if got := abbreviate(r, "Foo Bar"); got != "Foo Bar" {
		t.Fatalf("abbreviate without candidates = %q", got)
	}
}

func TestReorderTokens(t *testing.T) {
	r := xrand.New(3)
	if got := reorderTokens(r, "Cafe Ritz Buckhead"); got != "Buckhead Cafe Ritz" {
		t.Fatalf("reorder = %q", got)
	}
	if got := reorderTokens(r, "Solo"); got != "Solo" {
		t.Fatalf("single token reorder = %q", got)
	}
}

func TestDropToken(t *testing.T) {
	r := xrand.New(4)
	s := "a b c d"
	got := dropToken(r, s)
	if len(strings.Fields(got)) != 3 {
		t.Fatalf("dropToken = %q", got)
	}
	if got := dropToken(r, "a b"); got != "a b" {
		t.Fatalf("two-token drop = %q", got)
	}
}

func TestParenthesize(t *testing.T) {
	r := xrand.New(5)
	if got := parenthesize(r, "Ritz Cafe Buckhead"); got != "Ritz Cafe (Buckhead)" {
		t.Fatalf("parenthesize = %q", got)
	}
	if got := parenthesize(r, "Solo"); got != "Solo" {
		t.Fatalf("single-token parenthesize = %q", got)
	}
}

func TestPerturbAlwaysChanges(t *testing.T) {
	r := xrand.New(6)
	for changes := 1; changes <= 3; changes++ {
		for i := 0; i < 100; i++ {
			s := "Golden Dragon Noodle House"
			if got := Perturb(r, s, changes); got == s {
				t.Fatalf("%d changes left %q unchanged", changes, s)
			}
		}
	}
}

func TestPerturbDeterministic(t *testing.T) {
	a := Perturb(xrand.New(7), "Blue Lantern Grill", 2)
	b := Perturb(xrand.New(7), "Blue Lantern Grill", 2)
	if a != b {
		t.Fatalf("same seed perturbation differs: %q vs %q", a, b)
	}
}
