package votes

import "math"

// MaxVotes8 and MaxVotes16 are the most votes one item can hold while its
// row stays 8 and 16 bits wide. Every field of a row (n⁺_i and n⁻_i here, the
// switch tracker's frequency class and switch count) is at most the item's
// vote count n_i, so n_i alone decides when a row outgrows its layout.
const (
	MaxVotes8  = math.MaxUint8
	MaxVotes16 = math.MaxUint16
)

// field is the type of every field of a row in one layout.
type field interface{ uint8 | uint16 | int32 }

// row is one item's per-suite state: its vote counts, which the matrix keeps,
// and its switch state, which package switchstat keeps.
type row[T field] struct {
	pos, neg         T // n⁺_i, n⁻_i
	lastFreq, events T // frequency class of the most recent switch, switches so far
}

// Rows holds every item's row: the one per-item array of a suite. Rows start
// 8 bits wide (4 B per item). The first vote that takes any item past
// MaxVotes8 votes copies every row to 16 bits (8 B per item), and the first
// that takes one past MaxVotes16 copies them to 32 bits (16 B per item).
// Rows never narrow again, Reset included. Exactly one of r8, r16 and r32 is
// non-nil. Callers read and write fields as ints, so the logic over them is
// the same in every layout.
type Rows struct {
	r8  []row[uint8]
	r16 []row[uint16]
	r32 []row[int32]
}

// NewRows creates rows over n items, all zero.
func NewRows(n int) *Rows { return &Rows{r8: make([]row[uint8], n)} }

// Len returns the number of items.
func (r *Rows) Len() int { return max(len(r.r8), len(r.r16), len(r.r32)) }

// Bits returns the width of every field: 8, 16 or 32.
func (r *Rows) Bits() int {
	switch {
	case r.r8 != nil:
		return 8
	case r.r16 != nil:
		return 16
	}
	return 32
}

// Get returns item i's vote counts (n⁺_i, n⁻_i).
func (r *Rows) Get(i int) (pos, neg int) {
	switch {
	case r.r8 != nil:
		x := r.r8[i]
		return int(x.pos), int(x.neg)
	case r.r16 != nil:
		x := r.r16[i]
		return int(x.pos), int(x.neg)
	}
	x := r.r32[i]
	return int(x.pos), int(x.neg)
}

// Add counts one vote with label l on item i and returns the item's counts
// including it. If this vote takes the item past its row's layout, every row
// is widened first.
func (r *Rows) Add(i int, l Label) (pos, neg int) {
	switch {
	case r.r8 != nil:
		pos, neg = count(&r.r8[i], l, MaxVotes8)
	case r.r16 != nil:
		pos, neg = count(&r.r16[i], l, MaxVotes16)
	default:
		return count(&r.r32[i], l, math.MaxInt)
	}
	if pos < 0 {
		r.widen()
		return r.Add(i, l)
	}
	return pos, neg
}

// widen copies every row into the next wider layout.
func (r *Rows) widen() {
	if r.r8 != nil {
		r.r16, r.r8 = widenRows[uint16](r.r8), nil
	} else {
		r.r32, r.r16 = widenRows[int32](r.r16), nil
	}
}

// count adds one vote with label l to x and returns its counts including it,
// or -1, -1 with x untouched if they would exceed limit votes.
func count[T field](x *row[T], l Label, limit int) (pos, neg int) {
	pos, neg = int(x.pos), int(x.neg)
	if l == Dirty {
		pos++
	} else {
		neg++
	}
	if pos+neg > limit {
		return -1, -1
	}
	x.pos, x.neg = T(pos), T(neg)
	return pos, neg
}

// widenRows copies rows into the W-bit layout.
func widenRows[W, T field](rows []row[T]) []row[W] {
	out := make([]row[W], len(rows))
	for i, x := range rows {
		out[i] = row[W]{W(x.pos), W(x.neg), W(x.lastFreq), W(x.events)}
	}
	return out
}

// Switch returns item i's switch state: the frequency class of its most
// recent switch and its number of switches.
func (r *Rows) Switch(i int) (lastFreq, events int) {
	switch {
	case r.r8 != nil:
		x := r.r8[i]
		return int(x.lastFreq), int(x.events)
	case r.r16 != nil:
		x := r.r16[i]
		return int(x.lastFreq), int(x.events)
	}
	x := r.r32[i]
	return int(x.lastFreq), int(x.events)
}

// SetSwitch stores item i's switch state. Both values are at most the item's
// vote count, which the layout already holds, so a store never truncates.
func (r *Rows) SetSwitch(i, lastFreq, events int) {
	switch {
	case r.r8 != nil:
		r.r8[i].lastFreq, r.r8[i].events = uint8(lastFreq), uint8(events)
	case r.r16 != nil:
		r.r16[i].lastFreq, r.r16[i].events = uint16(lastFreq), uint16(events)
	default:
		r.r32[i].lastFreq, r.r32[i].events = int32(lastFreq), int32(events)
	}
}

// Reset zeroes every row in place, keeping the layout.
func (r *Rows) Reset() {
	clear(r.r8)
	clear(r.r16)
	clear(r.r32)
}
