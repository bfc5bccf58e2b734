package stats

import (
	"testing"

	"dqm/internal/xrand"
)

// TestRunningFreqMatchesWalks drives a RunningFreq through a random
// Add/Promote/Reset sequence and checks every running aggregate against the
// O(max count) walk over the underlying fingerprint after each step — the
// parity that makes the O(1) estimator inputs exact rather than approximate.
func TestRunningFreqMatchesWalks(t *testing.T) {
	rng := xrand.New(31)
	rf := NewRunningFreq(Freq{0})
	// counts mirrors the per-item counts the matrix would hold, so Promote
	// targets are always classes with at least one species in them.
	counts := map[int]int{}
	check := func(step int) {
		t.Helper()
		f := rf.View()
		if g, w := rf.Species(), f.Species(); g != w {
			t.Fatalf("step %d: Species = %d, walk = %d", step, g, w)
		}
		if g, w := rf.Mass(), f.Mass(); g != w {
			t.Fatalf("step %d: Mass = %d, walk = %d", step, g, w)
		}
		if g, w := rf.PairSum(), f.PairSum(); g != w {
			t.Fatalf("step %d: PairSum = %d, walk = %d", step, g, w)
		}
		if g, w := rf.Singletons(), f.Singletons(); g != w {
			t.Fatalf("step %d: Singletons = %d, walk = %d", step, g, w)
		}
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.IntN(100); {
		case op < 40: // new singleton species
			rf.Add(1, 1)
			counts[len(counts)] = 1
		case op < 85: // promote an existing species
			if len(counts) == 0 {
				continue
			}
			k := rng.IntN(len(counts))
			rf.Promote(counts[k])
			counts[k]++
		case op < 99: // remove a species from its class (matrix relabeling)
			if len(counts) == 0 {
				continue
			}
			k := rng.IntN(len(counts))
			rf.Add(counts[k], -1)
			delete(counts, k)
			// Reindex so keys stay dense for IntN addressing.
			re := map[int]int{}
			for _, c := range counts {
				re[len(re)] = c
			}
			counts = re
		default:
			rf.Reset()
			counts = map[int]int{}
		}
		check(step)
	}
}

// TestShiftedMatchesFreqShift pins the closed-form shifted aggregates against
// the materialized Freq.Shift walk for every shift the V-CHAO member can ask
// for, over random fingerprints.
func TestShiftedMatchesFreqShift(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 200; trial++ {
		rf := NewRunningFreq(Freq{0})
		species := 1 + rng.IntN(40)
		for i := 0; i < species; i++ {
			c := 1 + rng.IntN(8)
			rf.Add(c, 1)
		}
		for s := 0; s <= 6; s++ {
			got := rf.Shifted(s)
			f := rf.View()
			shifted := f.Shift(s)
			if g, w := got.F1, shifted.Singletons(); g != w {
				t.Fatalf("trial %d shift %d: F1 = %d, want %d", trial, s, g, w)
			}
			if g, w := got.Species, shifted.Species(); g != w {
				t.Fatalf("trial %d shift %d: Species = %d, want %d", trial, s, g, w)
			}
			if g, w := got.Mass, shifted.Mass(); g != w {
				t.Fatalf("trial %d shift %d: Mass = %d, want %d", trial, s, g, w)
			}
			if g, w := got.PairSum, shifted.PairSum(); g != w {
				t.Fatalf("trial %d shift %d: PairSum = %d, want %d", trial, s, g, w)
			}
			if g, w := got.DroppedCount, f.DroppedCount(s); g != w {
				t.Fatalf("trial %d shift %d: DroppedCount = %d, want %d", trial, s, g, w)
			}
			if g, w := got.DroppedMass, f.DroppedMass(s); g != w {
				t.Fatalf("trial %d shift %d: DroppedMass = %d, want %d", trial, s, g, w)
			}
		}
	}
}

// TestChao92FromStatsMatchesFreqPath: the scalar entry point and the
// fingerprint-walking entry point are the same computation.
func TestChao92FromStatsMatchesFreqPath(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 500; trial++ {
		f := Freq{0}
		species := rng.IntN(30)
		for i := 0; i < species; i++ {
			f.Add(1+rng.IntN(6), 1)
		}
		in := Chao92Input{C: f.Species(), F: f, N: f.Mass()}
		want := Chao92(in)
		got := Chao92FromStats(Chao92Stats{C: in.C, F1: f.Singletons(), PairSum: f.PairSum(), N: in.N})
		if got != want {
			t.Fatalf("trial %d: FromStats %+v != Freq path %+v", trial, got, want)
		}
	}
}
