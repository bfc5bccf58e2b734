package stats

// RunningFreq is a Freq that maintains its aggregate statistics — species
// count, observation mass, and the pair sum Σ j(j−1)f_j — incrementally as
// the fingerprint mutates. The Chao92 family consumes exactly these three
// scalars plus f₁, so a RunningFreq turns every estimate from an O(max
// frequency class) walk into an O(1) read. Mutators mirror Freq's (Add,
// Promote, Reset) and keep the aggregates exact; the wrapped Freq remains
// reachable through View for code that needs the full fingerprint.
type RunningFreq struct {
	f       Freq
	species int64
	mass    int64
	pairSum int64
}

// NewRunningFreq wraps an existing fingerprint, paying one full walk to seed
// the aggregates. The fingerprint is NOT copied: the RunningFreq takes
// ownership and the caller must stop mutating f directly.
func NewRunningFreq(f Freq) RunningFreq {
	return RunningFreq{f: f, species: f.Species(), mass: f.Mass(), pairSum: f.PairSum()}
}

// Add increments f_j by delta, updating the running aggregates.
func (r *RunningFreq) Add(j int, delta int64) {
	r.f.Add(j, delta)
	r.species += delta
	r.mass += int64(j) * delta
	r.pairSum += int64(j) * int64(j-1) * delta
}

// Promote moves one species from class j to class j+1. The species count is
// unchanged; the mass grows by one observation and the pair sum by
// (j+1)j − j(j−1) = 2j.
func (r *RunningFreq) Promote(j int) {
	r.f.Promote(j)
	r.mass++
	r.pairSum += 2 * int64(j)
}

// Reset empties the fingerprint in place (retaining capacity) and zeroes the
// aggregates.
func (r *RunningFreq) Reset() {
	r.f.Reset()
	r.species, r.mass, r.pairSum = 0, 0, 0
}

// View returns the underlying fingerprint without copying. Callers must not
// mutate it; doing so would desynchronize the aggregates.
func (r *RunningFreq) View() Freq { return r.f }

// Clone returns an independent copy of the underlying fingerprint.
func (r *RunningFreq) Clone() Freq { return r.f.Clone() }

// F returns f_j.
func (r *RunningFreq) F(j int) int64 { return r.f.F(j) }

// Species returns c = Σ f_j in O(1).
func (r *RunningFreq) Species() int64 { return r.species }

// Mass returns n = Σ j·f_j in O(1).
func (r *RunningFreq) Mass() int64 { return r.mass }

// PairSum returns Σ j(j−1)·f_j in O(1).
func (r *RunningFreq) PairSum() int64 { return r.pairSum }

// Singletons returns f₁.
func (r *RunningFreq) Singletons() int64 { return r.f.F(1) }

// Doubletons returns f₂.
func (r *RunningFreq) Doubletons() int64 { return r.f.F(2) }

// ShiftedStats carries the aggregate statistics of a fingerprint shifted by s
// classes (f'_j = f_{j+s}, the vChao92 device) without materializing the
// shifted Freq.
type ShiftedStats struct {
	F1           int64 // f'_1 = f_{1+s}
	Species      int64 // Σ f'_j
	Mass         int64 // Σ j·f'_j
	PairSum      int64 // Σ j(j−1)·f'_j
	DroppedCount int64 // Σ_{i≤s} f_i, the species discarded by the shift
	DroppedMass  int64 // Σ_{i≤s} i·f_i, the observation mass discarded
}

// Shifted computes the statistics of the s-shifted fingerprint in O(s) using
// the closed forms
//
//	Species' = Species − Σ_{k≤s} f_k
//	Mass'    = Σ_{k>s} (k−s)·f_k = (Mass − DroppedMass) − s·Species'
//	PairSum' = Σ_{k>s} (k−s)(k−s−1)·f_k
//	         = (PairSum − Σ_{k≤s} k(k−1)f_k) − 2s·(Mass − DroppedMass) + s(s+1)·Species'
//
// which agree with Freq.Shift followed by full walks (pinned by tests).
func (r *RunningFreq) Shifted(s int) ShiftedStats {
	if s < 0 {
		panic("stats: negative shift")
	}
	if s == 0 {
		return ShiftedStats{
			F1:      r.f.F(1),
			Species: r.species,
			Mass:    r.mass,
			PairSum: r.pairSum,
		}
	}
	var dropped, droppedMass, droppedPair int64
	for k := 1; k <= s; k++ {
		fk := r.f.F(k)
		dropped += fk
		droppedMass += int64(k) * fk
		droppedPair += int64(k) * int64(k-1) * fk
	}
	sp := r.species - dropped
	s64 := int64(s)
	return ShiftedStats{
		F1:           r.f.F(1 + s),
		Species:      sp,
		Mass:         (r.mass - droppedMass) - s64*sp,
		PairSum:      (r.pairSum - droppedPair) - 2*s64*(r.mass-droppedMass) + s64*(s64+1)*sp,
		DroppedCount: dropped,
		DroppedMass:  droppedMass,
	}
}
