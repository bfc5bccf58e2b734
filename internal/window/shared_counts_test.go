package window

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dqm/internal/estimator"
	"dqm/internal/switchstat"
	"dqm/internal/votes"
)

// diffTrackers returns the first accessor on which a suite member's tracker
// (got), which reads its suite matrix's vote counts, disagrees with a
// standalone tracker (want) that counts the same stream itself, or "".
// Ledgers compare with slices.Equal, so a reused empty ledger equals a
// fresh nil one.
func diffTrackers(got, want *switchstat.Tracker) string {
	for _, p := range []struct {
		name      string
		got, want any
	}{
		{"NumItems", got.NumItems(), want.NumItems()},
		{"NSwitch", got.NSwitch(), want.NSwitch()},
		{"Switches", got.Switches(), want.Switches()},
		{"PositiveSwitches", got.PositiveSwitches(), want.PositiveSwitches()},
		{"NegativeSwitches", got.NegativeSwitches(), want.NegativeSwitches()},
		{"CSwitch", got.CSwitch(), want.CSwitch()},
		{"CSwitchPositive", got.CSwitchPositive(), want.CSwitchPositive()},
		{"CSwitchNegative", got.CSwitchNegative(), want.CSwitchNegative()},
		{"Majority", got.Majority(), want.Majority()},
		{"PositiveStats", got.PositiveStats(), want.PositiveStats()},
		{"NegativeStats", got.NegativeStats(), want.NegativeStats()},
		{"RetainsLedgers", got.RetainsLedgers(), want.RetainsLedgers()},
	} {
		if p.got != p.want {
			return fmt.Sprintf("%s = %v, want %v", p.name, p.got, p.want)
		}
	}
	for i := 0; i < want.NumItems(); i++ {
		if got.ItemMajorityDirty(i) != want.ItemMajorityDirty(i) {
			return fmt.Sprintf("ItemMajorityDirty(%d) = %v, want %v", i, got.ItemMajorityDirty(i), want.ItemMajorityDirty(i))
		}
		if !slices.Equal(got.ItemLedger(i), want.ItemLedger(i)) {
			return fmt.Sprintf("ItemLedger(%d) = %v, want %v", i, got.ItemLedger(i), want.ItemLedger(i))
		}
	}
	return ""
}

// diffSwitch compares a suite's SWITCH member against a standalone estimator
// fed the same stream: tracker accessors, the full estimate, the suite's
// estimate, and the suite matrix's majority.
func diffSwitch(s *estimator.Suite, ref *estimator.SwitchEstimator) string {
	if msg := diffTrackers(s.Switch.Tracker(), ref.Tracker()); msg != "" {
		return msg
	}
	want := ref.Estimate()
	if got := s.Switch.Estimate(); got != want {
		return fmt.Sprintf("Estimate = %+v, want %+v", got, want)
	}
	if got := s.EstimateAll().Switch; got != want {
		return fmt.Sprintf("EstimateAll().Switch = %+v, want %+v", got, want)
	}
	if got, want := s.Matrix.Majority(), s.Switch.Tracker().Majority(); got != want {
		return fmt.Sprintf("matrix majority %d, tracker majority %d", got, want)
	}
	return ""
}

// TestSuiteSwitchMatchesStandalone: inside a suite the SWITCH tracker reads the
// suite matrix's per-item vote counts instead of keeping its own. Random
// streams drive a free suite beside a standalone NewSwitch fed the same votes,
// and a sliding window ring, whose every open pane has a standalone reference
// opened with its window. After every step each suite must match its
// reference. The steps reset the free suite and recycle window panes (a
// sealed pane is reset and reopened for a later window).
func TestSuiteSwitchMatchesStandalone(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		cfg := estimator.SuiteConfig{Switch: estimator.SwitchConfig{TrendWindow: 4, RetainLedgers: true}}
		paneCfg := cfg.Switch
		paneCfg.RetainLedgers = false
		free, freeRef := estimator.NewSuite(n, cfg), estimator.NewSwitch(n, cfg.Switch)
		ring := New(n, cfg, Config{Size: 5, Stride: 2})
		panes := map[int64]*estimator.SwitchEstimator{0: estimator.NewSwitch(n, paneCfg)}
		vote := func() votes.Vote {
			label := votes.Clean
			if rng.Intn(2) == 0 {
				label = votes.Dirty
			}
			return votes.Vote{Item: rng.Intn(n), Label: label}
		}
		sealed := 0
		for step := 0; step < 800; step++ {
			switch r := rng.Intn(100); {
			case r < 5:
				free.Reset()
				freeRef.Reset()
			case r < 20:
				free.EndTask()
				freeRef.EndTask()
			case r < 35:
				for _, ref := range panes {
					ref.EndTask()
				}
				if rot, ok := ring.EndTask(); ok {
					last, err := ring.Estimates(KindLast)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := last.Estimates.Switch, panes[rot.Start].Estimate(); got != want {
						t.Fatalf("seed %d step %d: sealed window %d Switch = %+v, want %+v", seed, step, rot.Start, got, want)
					}
					delete(panes, rot.Start)
					sealed++
				}
				if ring.Tasks()%int64(ring.Config().Stride) == 0 {
					panes[ring.Tasks()] = estimator.NewSwitch(n, paneCfg)
				}
			case r < 60:
				v := vote()
				ring.Observe(v)
				for _, ref := range panes {
					ref.Observe(v)
				}
			default:
				v := vote()
				free.Observe(v)
				freeRef.Observe(v)
			}
			if msg := diffSwitch(free, freeRef); msg != "" {
				t.Fatalf("seed %d step %d free suite: %s", seed, step, msg)
			}
			open := 0
			for _, p := range ring.panes {
				if p.start < 0 {
					continue
				}
				open++
				ref, ok := panes[p.start]
				if !ok {
					t.Fatalf("seed %d step %d: pane at %d has no reference", seed, step, p.start)
				}
				if msg := diffSwitch(p.suite, ref); msg != "" {
					t.Fatalf("seed %d step %d pane %d: %s", seed, step, p.start, msg)
				}
			}
			if open != len(panes) {
				t.Fatalf("seed %d step %d: %d open panes, %d references", seed, step, open, len(panes))
			}
		}
		if sealed < 2*len(ring.panes) {
			t.Fatalf("seed %d: %d sealed windows: the stream did not recycle panes", seed, sealed)
		}
	}
}

// TestPanesKeepNoLedgers: switch ledgers serve bootstrap intervals, which only
// the all-time suite answers, so window panes never keep them even when the
// session's suite does.
func TestPanesKeepNoLedgers(t *testing.T) {
	cfg := estimator.SuiteConfig{Switch: estimator.SwitchConfig{RetainLedgers: true}}
	r := New(10, cfg, Config{Size: 4, Stride: 1})
	for i, p := range r.panes {
		if st, err := p.suite.Switch.CaptureBootstrap(); err == nil {
			st.Release()
			t.Fatalf("pane %d keeps switch ledgers", i)
		}
	}
}
