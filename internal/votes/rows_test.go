package votes

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestTallyIs4Bytes: fresh rows are 8 bits wide and cost 4 B per item, the
// item's tally (n⁺_i, n⁻_i) and its switch state together.
func TestTallyIs4Bytes(t *testing.T) {
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRows(n)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if perItem := (after.TotalAlloc - before.TotalAlloc) / n; perItem != 4 || r.Bits() != 8 {
		t.Fatalf("NewRows(%d): %d B per item, %d bits wide, want 4 B and 8 bits", n, perItem, r.Bits())
	}
}

func TestRowBytes(t *testing.T) {
	for _, c := range []struct {
		got, want uintptr
	}{
		{unsafe.Sizeof(row[uint8]{}), 4},
		{unsafe.Sizeof(row[uint16]{}), 8},
		{unsafe.Sizeof(row[int32]{}), 16},
	} {
		if c.got != c.want {
			t.Fatalf("row is %d B, want %d", c.got, c.want)
		}
	}
}

// bitsFor returns the narrowest layout that holds an item with n votes.
func bitsFor(n int64) int {
	switch {
	case n <= MaxVotes8:
		return 8
	case n <= MaxVotes16:
		return 16
	}
	return 32
}

// TestCountsWidenExactlyPastNarrowVotes: rows stay 8 bits wide while every
// item holds at most MaxVotes8 votes, widen to 16 bits at the vote that takes
// one item past it and to 32 bits at the vote that takes one past MaxVotes16.
// After every vote, every item's counts must equal 64-bit reference counts,
// and every item's switch fields the values last stored (each vote stores
// the largest value its item's count allows, so the fields cross the bounds
// too). Reset must keep the layout and clear everything, and a replay after
// it must never widen.
func TestCountsWidenExactlyPastNarrowVotes(t *testing.T) {
	const n = 4
	m := NewMatrix(n)
	r := m.Rows()
	// Item 1 takes every vote, dirty one in three; items 0, 2 and 3 take a
	// dirty, clean and alternating vote every 97 votes.
	var stream []Vote
	for k := 0; k < MaxVotes16+400; k++ {
		stream = append(stream, Vote{Item: 1, Label: Label(k % 3 % 2)})
		if k%97 == 0 {
			stream = append(stream, Vote{Item: 0, Label: Dirty}, Vote{Item: 2, Label: Clean},
				Vote{Item: 3, Label: Label(k / 97 % 2)})
		}
	}
	for pass := 0; pass < 2; pass++ {
		pos, neg := make([]int64, n), make([]int64, n)
		bits := r.Bits()
		widened := map[int]bool{}
		for step, v := range stream {
			m.Add(v)
			if v.Label == Dirty {
				pos[v.Item]++
			} else {
				neg[v.Item]++
			}
			seen := pos[v.Item] + neg[v.Item]
			r.SetSwitch(v.Item, int(seen), int(seen+1)/2)
			want := max(bits, bitsFor(seen))
			if got := r.Bits(); got != want {
				t.Fatalf("pass %d step %d: %d bits with %d votes on item %d, want %d", pass, step, got, seen, v.Item, want)
			}
			if want != bits {
				widened[want] = true
			}
			bits = want
			for i := 0; i < n; i++ {
				p, q := r.Get(i)
				lastFreq, events := r.Switch(i)
				s := pos[i] + neg[i]
				if int64(m.Pos(i)) != pos[i] || int64(m.Neg(i)) != neg[i] || int64(p) != pos[i] || int64(q) != neg[i] ||
					int64(lastFreq) != s || int64(events) != (s+1)/2 || m.MajorityDirty(i) != (pos[i] > neg[i]) {
					t.Fatalf("pass %d step %d item %d: counts %d/%d, switch %d/%d; want %d/%d, %d/%d",
						pass, step, i, p, q, lastFreq, events, pos[i], neg[i], s, (s+1)/2)
				}
			}
		}
		if pass == 0 && (!widened[16] || !widened[32]) {
			t.Fatalf("widened to %v, want 16 and 32 bits", widened)
		}
		if pass == 1 && len(widened) != 0 {
			t.Fatalf("a reset matrix widened again to %v", widened)
		}
		p1 := int(pos[1])
		if f := m.DirtyFingerprint(); f.F(p1) != 1 || f.Species() != 3 || m.Nominal() != 3 || m.Majority() != 1 {
			t.Fatalf("fingerprint lost the wide class: f(%d) %d, species %d, c_nominal %d, c_majority %d",
				p1, f.F(p1), f.Species(), m.Nominal(), m.Majority())
		}
		m.Reset()
		if r.Bits() != 32 || m.Seen(1) != 0 || m.Coverage() != 0 || m.TotalVotes() != 0 {
			t.Fatalf("Reset: %d bits, seen %d", r.Bits(), m.Seen(1))
		}
		for i := 0; i < n; i++ {
			if lastFreq, events := r.Switch(i); lastFreq != 0 || events != 0 {
				t.Fatalf("Reset left switch state %d/%d on item %d", lastFreq, events, i)
			}
		}
	}
}

// TestRowsAddReturnsCounts: a standalone Rows counts a vote and returns the
// counts including it on both sides of each bound.
func TestRowsAddReturnsCounts(t *testing.T) {
	r := NewRows(2)
	for k := 1; k <= MaxVotes16+2; k++ {
		label := Clean
		if k%2 == 0 {
			label = Dirty
		}
		pos, neg := r.Add(1, label)
		if pos != k/2 || neg != k-k/2 || r.Bits() != bitsFor(int64(k)) {
			t.Fatalf("vote %d: Add = %d/%d at %d bits, want %d/%d at %d", k, pos, neg, r.Bits(), k/2, k-k/2, bitsFor(int64(k)))
		}
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d after widening", r.Len())
	}
}
