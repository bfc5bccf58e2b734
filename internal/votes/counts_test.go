package votes

import (
	"testing"
	"unsafe"
)

func TestTallyIs4Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Tally{}); got != 4 {
		t.Fatalf("unsafe.Sizeof(Tally{}) = %d, want 4", got)
	}
}

// TestCountsWidenExactlyPastNarrowVotes: counts stay narrow while every item
// holds at most MaxNarrowVotes votes, widen at the vote that takes one item
// past it with every other item's counts intact, keep counting exactly, and
// stay wide through Reset.
func TestCountsWidenExactlyPastNarrowVotes(t *testing.T) {
	m := NewMatrix(3)
	m.Add(Vote{Item: 0, Label: Dirty})
	m.Add(Vote{Item: 0, Label: Clean})
	m.Add(Vote{Item: 2, Label: Clean})
	for k := 0; k < MaxNarrowVotes-1; k++ {
		m.Add(Vote{Item: 1, Label: Label(k % 3 % 2)}) // dirty one vote in three
	}
	pos, neg := MaxNarrowVotes/3, MaxNarrowVotes-1-MaxNarrowVotes/3
	if m.Counts().Wide() || m.Pos(1) != pos || m.Neg(1) != neg {
		t.Fatalf("after %d votes: wide %v, counts %d/%d, want narrow %d/%d",
			MaxNarrowVotes-1, m.Counts().Wide(), m.Pos(1), m.Neg(1), pos, neg)
	}
	m.Add(Vote{Item: 1, Label: Dirty}) // n_1 = MaxNarrowVotes: still fits
	if m.Counts().Wide() {
		t.Fatal("widened at MaxNarrowVotes votes")
	}
	m.Add(Vote{Item: 1, Label: Dirty}) // n_1 = MaxNarrowVotes + 1
	if !m.Counts().Wide() {
		t.Fatal("still narrow past MaxNarrowVotes votes")
	}
	for _, c := range []struct{ item, pos, neg int }{{0, 1, 1}, {1, pos + 2, neg}, {2, 0, 1}} {
		if m.Pos(c.item) != c.pos || m.Neg(c.item) != c.neg || m.Seen(c.item) != c.pos+c.neg {
			t.Fatalf("item %d: counts %d/%d seen %d, want %d/%d", c.item, m.Pos(c.item), m.Neg(c.item), m.Seen(c.item), c.pos, c.neg)
		}
	}
	for k := 0; k < MaxNarrowVotes; k++ {
		m.Add(Vote{Item: 1, Label: Dirty})
	}
	if m.Pos(1) != pos+2+MaxNarrowVotes || !m.MajorityDirty(1) || m.Majority() != 1 {
		t.Fatalf("wide counts: n⁺_1 = %d, majority %d", m.Pos(1), m.Majority())
	}
	if f := m.DirtyFingerprint(); f.F(pos+2+MaxNarrowVotes) != 1 || f.F(1) != 1 || f.Species() != 2 {
		t.Fatalf("fingerprint lost the wide class: f₁ %d, species %d", f.F(1), f.Species())
	}
	m.Reset()
	if !m.Counts().Wide() || m.Seen(1) != 0 || m.Coverage() != 0 {
		t.Fatalf("Reset: wide %v, seen %d", m.Counts().Wide(), m.Seen(1))
	}
}
