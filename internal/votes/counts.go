package votes

import "math"

// MaxNarrowVotes is the most votes one item can hold while its counts stay
// 16 bits wide. Every per-item counter a suite keeps (n⁺_i and n⁻_i here, the
// switch tracker's switch count and frequency class) is at most the item's
// vote count n_i, so n_i alone decides when they outgrow 16 bits.
const MaxNarrowVotes = math.MaxUint16

// Tally is one item's positive and negative vote counts (n⁺_i, n⁻_i) in the
// narrow 16-bit layout a Counts starts with. Counts hands them out as ints,
// so no sum or comparison is ever done in 16 bits, where n⁺_i + n⁻_i and
// n⁻_i + 1 would wrap.
type Tally struct {
	Pos, Neg uint16
}

// wideTally is a Tally widened to 32 bits.
type wideTally struct {
	pos, neg int32
}

// Counts holds every item's vote counts. Rows start as 4-byte Tallies; the
// first vote that takes any item past MaxNarrowVotes widens every row to 32
// bits once, and the counts stay wide until they are dropped, Reset included.
// Exactly one of narrow and wide is non-nil. Callers read counts as plain
// ints, so the logic over them is the same in both layouts.
type Counts struct {
	narrow []Tally
	wide   []wideTally
}

// NewCounts creates counts over n items, all zero.
func NewCounts(n int) *Counts { return &Counts{narrow: make([]Tally, n)} }

// Len returns the number of items.
func (c *Counts) Len() int {
	if c.wide != nil {
		return len(c.wide)
	}
	return len(c.narrow)
}

// Wide reports whether the counts have been widened to 32 bits.
func (c *Counts) Wide() bool { return c.wide != nil }

// Get returns item i's counts (n⁺_i, n⁻_i).
func (c *Counts) Get(i int) (pos, neg int) {
	if c.wide != nil {
		w := c.wide[i]
		return int(w.pos), int(w.neg)
	}
	t := c.narrow[i]
	return int(t.Pos), int(t.Neg)
}

// Add counts one vote with label l on item i and returns the item's counts
// including it. If this vote takes the item past MaxNarrowVotes, every row
// is widened first.
func (c *Counts) Add(i int, l Label) (pos, neg int) {
	if c.wide == nil {
		t := &c.narrow[i]
		pos, neg = int(t.Pos), int(t.Neg)
		if l == Dirty {
			pos++
		} else {
			neg++
		}
		if pos+neg <= MaxNarrowVotes {
			*t = Tally{Pos: uint16(pos), Neg: uint16(neg)}
			return pos, neg
		}
		c.widen()
	}
	w := &c.wide[i]
	if l == Dirty {
		w.pos++
	} else {
		w.neg++
	}
	return int(w.pos), int(w.neg)
}

// widen copies every row into the 32-bit layout and drops the narrow one.
func (c *Counts) widen() {
	c.wide = make([]wideTally, len(c.narrow))
	for i, t := range c.narrow {
		c.wide[i] = wideTally{pos: int32(t.Pos), neg: int32(t.Neg)}
	}
	c.narrow = nil
}

// Reset zeroes every count in place, keeping the layout.
func (c *Counts) Reset() {
	clear(c.narrow)
	clear(c.wide)
}
