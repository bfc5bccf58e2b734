package dqm

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

func windowedDefaults() Config {
	cfg := Defaults()
	cfg.Window = &WindowConfig{Size: 8, Stride: 4, DecayAlpha: 0.5}
	return cfg
}

// TestPublicWindowedSession exercises the windowed read plane through the
// public API: availability progression, spans, and divergence of windowed vs
// all-time views.
func TestPublicWindowedSession(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	s, err := eng.CreateSession("win", 50, windowedDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !s.Windowed() {
		t.Fatal("Windowed() = false on a windowed session")
	}
	if _, err := s.WindowEstimates(WindowLast); err == nil {
		t.Fatal("WindowLast available before any window completed")
	}
	ingestDeterministic(t, s, 20)
	last, err := s.WindowEstimates(WindowLast)
	if err != nil {
		t.Fatal(err)
	}
	if last.Start != 12 || last.End != 20 || !last.Complete || last.Tasks != 8 {
		t.Fatalf("last window span [%d,%d) tasks=%d complete=%v, want [12,20) 8 true",
			last.Start, last.End, last.Tasks, last.Complete)
	}
	cur, err := s.WindowEstimates(WindowCurrent)
	if err != nil {
		t.Fatal(err)
	}
	if cur.End != 20 || cur.Complete {
		t.Fatalf("current window end=%d complete=%v, want 20 false", cur.End, cur.Complete)
	}
	if _, err := s.WindowEstimates(WindowDecayed); err != nil {
		t.Fatal(err)
	}

	// A plain session rejects windowed reads; Windowed reports it.
	plain, err := eng.CreateSession("plain", 50, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Windowed() {
		t.Fatal("plain session claims windows")
	}
	if _, err := plain.WindowEstimates(WindowCurrent); err == nil {
		t.Fatal("plain session served a windowed read")
	}

	// Bad window configs are rejected at create time, not panic time.
	bad := Defaults()
	bad.Window = &WindowConfig{Size: 10, Stride: 20}
	if _, err := eng.CreateSession("bad", 50, bad); err == nil {
		t.Fatal("invalid window config accepted")
	}
}

// TestPublicVersionAndCacheSemantics: Version moves with mutations only, and
// cached reads equal recomputed reads.
func TestPublicVersionAndCacheSemantics(t *testing.T) {
	rec := NewRecorder(20, Defaults())
	if rec.Version() != 0 {
		t.Fatalf("fresh version = %d", rec.Version())
	}
	rec.Record(3, 0, true)
	rec.EndTask()
	v := rec.Version()
	if v != 2 {
		t.Fatalf("version after two mutations = %d", v)
	}
	e1 := rec.Estimates()
	e2 := rec.Estimates()
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("repeated reads differ")
	}
	if rec.Version() != v {
		t.Fatal("reads moved the version")
	}
}

// TestWindowedDurableSessionPublicAPI: windowed sessions survive engine
// reopen with identical windowed views (rotation records included).
func TestWindowedDurableSessionPublicAPI(t *testing.T) {
	dir := t.TempDir()
	eng, err := OpenEngine(dir, EngineConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.CreateSession("win", 40, windowedDefaults())
	if err != nil {
		t.Fatal(err)
	}
	ingestDeterministic(t, s, 30)
	wantAll := s.Estimates()
	wantLast, err := s.WindowEstimates(WindowLast)
	if err != nil {
		t.Fatal(err)
	}
	wantDec, err := s.WindowEstimates(WindowDecayed)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := OpenEngine(dir, EngineConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	s2, ok := eng2.Session("win")
	if !ok {
		t.Fatal("windowed session not recovered")
	}
	if got := s2.Estimates(); !reflect.DeepEqual(got, wantAll) {
		t.Fatal("all-time estimates diverge after reopen")
	}
	gotLast, err := s2.WindowEstimates(WindowLast)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotLast, wantLast) {
		t.Fatalf("last window diverges after reopen:\n got %+v\nwant %+v", gotLast, wantLast)
	}
	gotDec, err := s2.WindowEstimates(WindowDecayed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDec, wantDec) {
		t.Fatal("decayed aggregate diverges after reopen")
	}
}

// TestParseWindowKindPublic: wire names round-trip.
func TestParseWindowKindPublic(t *testing.T) {
	for _, k := range []WindowKind{WindowCurrent, WindowLast, WindowDecayed} {
		got, err := ParseWindowKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseWindowKind(%q) = (%v, %v)", k.String(), got, err)
		}
	}
	if _, err := ParseWindowKind("all"); err == nil {
		t.Fatal("ParseWindowKind accepted garbage")
	}
}

// TestRemainingSameForEverySwitchSelection replays one stream through a
// windowed recorder for every selection that contains SWITCH. Remaining
// reads SWITCH's own majority count, so in the all-time view and in every
// window view it must equal the full suite's, whether or not VOTING is
// selected.
func TestRemainingSameForEverySwitchSelection(t *testing.T) {
	names := []string{"NOMINAL", "VOTING", "CHAO92", "V-CHAO"}
	var recs []*Recorder
	var sels [][]string
	for mask := 0; mask < 1<<len(names); mask++ {
		sel := []string{"SWITCH"}
		for i, name := range names {
			if mask&(1<<i) != 0 {
				sel = append(sel, name)
			}
		}
		cfg := windowedDefaults()
		cfg.Estimators = sel
		recs = append(recs, NewRecorder(40, cfg))
		sels = append(sels, sel)
	}
	full := NewRecorder(40, windowedDefaults())
	kinds := []WindowKind{WindowCurrent, WindowLast, WindowDecayed}
	var nonzero [2]int // all-time and windowed reads with remaining > 0
	rng := rand.New(rand.NewPCG(7, 11))
	for task := 0; task < 60; task++ {
		for j := 0; j < 12; j++ {
			// Items below 12 are dirty; workers miss an error 30% of the
			// time and flag a clean item 5% of the time, so consensus
			// switches keep SWITCH's remaining estimate above zero.
			item := rng.IntN(40)
			dirty := rng.Float64() < 0.05
			if item < 12 {
				dirty = rng.Float64() >= 0.3
			}
			v := Vote{Item: item, Worker: j % 4, Dirty: dirty}
			full.RecordVote(v)
			for _, r := range recs {
				r.RecordVote(v)
			}
		}
		full.EndTask()
		for _, r := range recs {
			r.EndTask()
		}
		want := full.Estimates()
		if want.Remaining() > 0 {
			nonzero[0]++
		}
		for i, r := range recs {
			got := r.Estimates()
			if got.Switch != want.Switch || got.Remaining() != want.Remaining() {
				t.Fatalf("task %d, %v: Switch %+v remaining %v, want %+v remaining %v",
					task, sels[i], got.Switch, got.Remaining(), want.Switch, want.Remaining())
			}
		}
		for _, kind := range kinds {
			we, err := full.WindowEstimates(kind)
			if err != nil {
				continue // no completed window yet
			}
			if we.Estimates.Remaining() > 0 {
				nonzero[1]++
			}
			for i, r := range recs {
				got, err := r.WindowEstimates(kind)
				if err != nil {
					t.Fatalf("task %d, %v, %v: %v", task, sels[i], kind, err)
				}
				if got.Estimates.Switch != we.Estimates.Switch || got.Estimates.Remaining() != we.Estimates.Remaining() {
					t.Fatalf("task %d, %v, %v: remaining %v, want %v",
						task, sels[i], kind, got.Estimates.Remaining(), we.Estimates.Remaining())
				}
			}
		}
	}
	if nonzero[0] == 0 || nonzero[1] == 0 {
		t.Fatalf("remaining above zero after %d tasks, in %d window reads: the test compares zeros", nonzero[0], nonzero[1])
	}
}
