package votes

import "math"

// MaxVotes4, MaxVotes8 and MaxVotes16 are the most votes one item can hold
// while its row stays 4, 8 and 16 bits wide. Every field of a row (n⁺_i and
// n⁻_i here, the switch tracker's frequency class and switch count) is at most
// the item's vote count n_i, so n_i alone decides when a row outgrows its
// layout.
const (
	MaxVotes4  = 15
	MaxVotes8  = math.MaxUint8
	MaxVotes16 = math.MaxUint16
)

// field is the type of every field of a row in one of the wider layouts.
type field interface{ uint8 | uint16 | int32 }

// row is one item's per-suite state: its vote counts, which the matrix keeps,
// and its switch state, which package switchstat keeps.
type row[T field] struct {
	pos, neg         T // n⁺_i, n⁻_i
	lastFreq, events T // frequency class of the most recent switch, switches so far
}

// A 4-bit row is one uint16 holding the four fields of row as nibbles:
// lastFreq, events, n⁺_i and n⁻_i at bits 0, 4, 8 and 12. The switch state
// takes the low byte so that SetSwitch, which a tracker calls on most votes,
// stays cheap enough for the compiler to inline.
const nibble = 1<<4 - 1

// Rows holds every item's row: the one per-item array of a suite. Rows start
// 4 bits wide (2 B per item). The first vote that takes any item past
// MaxVotes4 votes copies every row to 8 bits (4 B per item), the first that
// takes one past MaxVotes8 copies them to 16 bits (8 B per item), and the
// first that takes one past MaxVotes16 copies them to 32 bits (16 B per item).
// Rows never narrow again, Reset included. Exactly one of r4, r8, r16 and r32
// is non-nil. Callers read and write fields as ints, so the logic over them is
// the same in every layout.
type Rows struct {
	r4  []uint16
	r8  []row[uint8]
	r16 []row[uint16]
	r32 []row[int32]
}

// NewRows creates rows over n items, all zero.
func NewRows(n int) *Rows { return &Rows{r4: make([]uint16, n)} }

// Len returns the number of items.
func (r *Rows) Len() int { return max(len(r.r4), len(r.r8), len(r.r16), len(r.r32)) }

// Bits returns the width of every field: 4, 8, 16 or 32.
func (r *Rows) Bits() int {
	switch {
	case r.r4 != nil:
		return 4
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
	case r.r4 != nil:
		x := r.r4[i]
		return int(x >> 8 & nibble), int(x >> 12)
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
	case r.r4 != nil:
		pos, neg = count4(&r.r4[i], l)
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
	switch {
	case r.r4 != nil:
		r.r8 = make([]row[uint8], len(r.r4))
		for i, x := range r.r4 {
			r.r8[i] = row[uint8]{uint8(x >> 8 & nibble), uint8(x >> 12), uint8(x & nibble), uint8(x >> 4 & nibble)}
		}
		r.r4 = nil
	case r.r8 != nil:
		r.r16, r.r8 = widenRows[uint16](r.r8), nil
	default:
		r.r32, r.r16 = widenRows[int32](r.r16), nil
	}
}

// count4 is count for a 4-bit row x.
func count4(x *uint16, l Label) (pos, neg int) {
	pos, neg = int(*x>>8&nibble), int(*x>>12)
	if pos+neg == MaxVotes4 {
		return -1, -1
	}
	if l == Dirty {
		pos++
	} else {
		neg++
	}
	*x = *x&(nibble<<4|nibble) | uint16(neg<<4|pos)<<8
	return pos, neg
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
	case r.r4 != nil:
		x := r.r4[i]
		return int(x & nibble), int(x >> 4 & nibble)
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
	case r.r4 != nil:
		r.r4[i] = r.r4[i]&^(nibble<<4|nibble) | uint16(events<<4|lastFreq)
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
	clear(r.r4)
	clear(r.r8)
	clear(r.r16)
	clear(r.r32)
}
