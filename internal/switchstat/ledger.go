package switchstat

// Per-item switch ledgers support resampling-based uncertainty
// quantification (§6.3 asks how much trust an analyst can place in the
// estimates; package estimator answers with bootstrap confidence
// intervals). Retention is opt-in: the streaming aggregates never need it.

// SwitchEvent is one recorded consensus flip and its rediscovery count.
type SwitchEvent struct {
	// Positive is true for a clean→dirty flip.
	Positive bool
	// Freq is 1 plus the number of later votes that rediscovered this
	// switch (its frequency class in the f′-statistics).
	Freq int
}

// WithItemLedgers retains the full per-item switch event lists, enabling
// ItemLedger and the bootstrap in package estimator. Costs O(switches)
// memory.
func WithItemLedgers() Option {
	return func(t *Tracker) { t.retainLedgers = true }
}

// RetainsLedgers reports whether per-item ledgers are being kept.
func (t *Tracker) RetainsLedgers() bool { return t.retainLedgers }

// ItemLedger returns item i's switch events in occurrence order. The slice
// aliases internal storage and must not be modified. It returns nil when
// ledgers are not retained (distinguishable from "no switches" via
// RetainsLedgers).
func (t *Tracker) ItemLedger(item int) []SwitchEvent {
	if !t.retainLedgers {
		return nil
	}
	return t.ledgers[item]
}

// ItemMajorityDirty reports whether item i's strict vote majority is dirty.
func (t *Tracker) ItemMajorityDirty(item int) bool {
	pos, neg := t.rows.Get(item)
	return pos > neg
}
