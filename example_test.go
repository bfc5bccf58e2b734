package dqm_test

import (
	"fmt"

	"dqm"
)

// The basic loop: record worker votes in task order, then read the
// estimates. Three workers review a four-item dataset; item 2 is flagged by
// two of them, item 0 by one.
func ExampleRecorder() {
	rec := dqm.NewRecorder(4, dqm.Defaults())

	// Worker 0 reviews items 0-2.
	rec.Record(0, 0, true)
	rec.Record(1, 0, false)
	rec.Record(2, 0, true)
	rec.EndTask()
	// Worker 1 reviews items 0, 2, 3.
	rec.Record(0, 1, false)
	rec.Record(2, 1, true)
	rec.Record(3, 1, false)
	rec.EndTask()

	e := rec.Estimates()
	fmt.Printf("nominal=%.0f voting=%.0f\n", e.Nominal, e.Voting)
	// Output:
	// nominal=2 voting=1
}

// Extrapolate is the predictive baseline of §2.2.3: a perfectly cleaned 1%
// sample with 4 errors scales to 400 errors in the full dataset.
func ExampleExtrapolate() {
	total := dqm.Extrapolate(4, 10, 1000)
	fmt.Printf("%.0f\n", total)
	// Output:
	// 400
}

// Remaining is the headline quantity: the SWITCH total minus what the
// majority already found.
func ExampleEstimates_Remaining() {
	e := dqm.Estimates{
		Switch: dqm.SwitchEstimate{Total: 52.5, Majority: 40},
	}
	fmt.Printf("%.1f\n", e.Remaining())
	// Output:
	// 12.5
}

// Confidence intervals require TrackConfidence at construction.
func ExampleRecorder_SwitchCI() {
	cfg := dqm.Defaults()
	cfg.TrackConfidence = true
	rec := dqm.NewRecorder(100, cfg)
	for task := 0; task < 30; task++ {
		for i := 0; i < 10; i++ {
			item := (task*7 + i*13) % 100
			rec.Record(item, task, item%10 == 0)
		}
		rec.EndTask()
	}
	ci, err := rec.SwitchCI(100, 0.9)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("interval is ordered: %v\n", ci.Lo <= ci.Hi)
	// Output:
	// interval is ordered: true
}
