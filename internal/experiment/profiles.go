package experiment

import "dqm/internal/crowd"

// Worker profiles calibrated to reproduce the qualitative signatures the
// paper reports for each AMT deployment, whose labels are not available
// offline (see package dataset). The estimators only see the vote stream, so
// matching the error *balance* is what matters:
//
//   - Restaurant (§6.1.1): "the workers make a lot of false positive
//     errors"; VOTING monotonically decreases; negative switches dominate.
//   - Product (§6.1.2): "the matching task is more difficult … contains more
//     false negative errors"; VOTING increases; positive switches dominate.
//   - Address (§6.1.3): "both false positives and negatives in fair
//     amounts"; VOTING is flat initially.
var (
	// RestaurantProfile is FP-heavy relative to the tiny 12/1264 error rate:
	// a 5% FP rate yields ≈60 wrongly marked pairs per pass over the
	// candidates, dwarfing the 12 true duplicates.
	RestaurantProfile = crowd.Profile{FPRate: 0.05, FNRate: 0.25, Jitter: 0.25}

	// ProductProfile is FN-heavy: matching product listings across catalogs
	// is hard, so a fifth of the true matches are missed per view, while
	// uniform false positives are rare (the confusable near-miss pairs of
	// Figure 4 are modeled separately via FPDifficulty).
	ProductProfile = crowd.Profile{FPRate: 0.004, FNRate: 0.2, Jitter: 0.25}

	// AddressProfile mixes both error types in fair amounts.
	AddressProfile = crowd.Profile{FPRate: 0.04, FNRate: 0.2, Jitter: 0.25}
)

// Simulation-study profiles (§6.2): the three worker types.
var (
	// FNOnlyProfile is scenario 1: a 10% chance to overlook a true error,
	// no false positives.
	FNOnlyProfile = crowd.Profile{FPRate: 0, FNRate: 0.10}
	// FPOnlyProfile is scenario 2: a 1% chance to wrongly mark a clean item.
	FPOnlyProfile = crowd.Profile{FPRate: 0.01, FNRate: 0}
	// BothProfile is scenario 3: both error types (10% FN, 1% FP).
	BothProfile = crowd.Profile{FPRate: 0.01, FNRate: 0.10}
)
