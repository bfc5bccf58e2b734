package votes

// WorkerSet counts distinct worker IDs as a growable dense bitset: worker IDs
// are small dense integers in every supported source (simulator pools number
// workers 0..K−1, vote logs use row-local counters), so a bitset replaces a
// map on the per-vote path. IDs outside the dense range — negative, or so
// large the bitset would balloon (possible only in hand-written logs) — fall
// back to a lazily allocated map, so correctness never depends on the dense
// assumption. The zero value is an empty set.
type WorkerSet struct {
	bits   []uint64
	count  int
	sparse map[int]struct{}
}

// workerSetMaxDense bounds the bitset to 1 MiB (2²³ worker IDs); beyond
// that the sparse map is cheaper than the zero-filled words.
const workerSetMaxDense = 1 << 23

// Add records worker w, returning without allocating when w was seen.
func (s *WorkerSet) Add(w int) {
	if w < 0 || w >= workerSetMaxDense {
		if s.sparse == nil {
			s.sparse = make(map[int]struct{})
		}
		if _, ok := s.sparse[w]; !ok {
			s.sparse[w] = struct{}{}
			s.count++
		}
		return
	}
	word := w >> 6
	for word >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	if bit := uint64(1) << (w & 63); s.bits[word]&bit == 0 {
		s.bits[word] |= bit
		s.count++
	}
}

// Len returns the number of distinct workers recorded.
func (s *WorkerSet) Len() int { return s.count }

// Reset clears the set, retaining the bitset's capacity.
func (s *WorkerSet) Reset() {
	clear(s.bits)
	s.count = 0
	s.sparse = nil
}
