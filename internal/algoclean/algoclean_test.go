package algoclean

import (
	"testing"

	"dqm/internal/dataset"
	"dqm/internal/rules"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

func TestFuncJudge(t *testing.T) {
	j := New("even-dirty", func(i int) votes.Label {
		if i%2 == 0 {
			return votes.Dirty
		}
		return votes.Clean
	})
	if j.Name() != "even-dirty" {
		t.Fatalf("name = %q", j.Name())
	}
	if j.Judge(2) != votes.Dirty || j.Judge(3) != votes.Clean {
		t.Fatal("judgments wrong")
	}
}

func TestThresholdJudge(t *testing.T) {
	scores := []float64{0.1, 0.5, 0.9}
	j := ThresholdJudge("thr", func(i int) float64 { return scores[i] }, 0.5)
	if j.Judge(0) != votes.Clean || j.Judge(1) != votes.Dirty || j.Judge(2) != votes.Dirty {
		t.Fatal("threshold judgments wrong")
	}
}

func TestRuleJudge(t *testing.T) {
	records := []dataset.Address{
		{Number: 1, Street: "N Alder St", City: "Portland", State: "OR", Zip: "97201"},
		{Number: 1, Street: "N Alder St", City: "Portland", State: "OR", Zip: "9720"},
	}
	j := RuleJudge("zip", records, rules.ZipFormat{})
	if j.Judge(0) != votes.Clean {
		t.Fatal("clean record flagged")
	}
	if j.Judge(1) != votes.Dirty {
		t.Fatal("bad zip not flagged")
	}
}

func TestCommitteeTasksCoverEveryJudgeItemPair(t *testing.T) {
	c := NewCommittee(
		New("all-dirty", func(int) votes.Label { return votes.Dirty }),
		New("all-clean", func(int) votes.Label { return votes.Clean }),
	)
	const n, perTask = 23, 5
	tasks := c.Tasks(n, perTask, xrand.New(1))

	// Every (judge, item) pair appears exactly once.
	seen := map[[2]int]int{}
	for _, task := range tasks {
		if len(task.Items) > perTask {
			t.Fatalf("task of %d items", len(task.Items))
		}
		for i, item := range task.Items {
			seen[[2]int{task.Worker, item}]++
			// Labels match the judge deterministically.
			want := votes.Dirty
			if task.Worker == 1 {
				want = votes.Clean
			}
			if task.Labels[i] != want {
				t.Fatalf("judge %d mislabeled item %d", task.Worker, item)
			}
		}
	}
	if len(seen) != 2*n {
		t.Fatalf("covered %d judge-item pairs, want %d", len(seen), 2*n)
	}
	for k, v := range seen {
		if v != 1 {
			t.Fatalf("pair %v judged %d times", k, v)
		}
	}
}

func TestCommitteeTasksPanics(t *testing.T) {
	c := NewCommittee(New("x", func(int) votes.Label { return votes.Clean }))
	defer func() {
		if recover() == nil {
			t.Fatal("invalid shape did not panic")
		}
	}()
	c.Tasks(0, 5, xrand.New(1))
}

func TestNewCommitteePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty committee did not panic")
		}
	}()
	NewCommittee()
}

func TestConsensus(t *testing.T) {
	dirtyBelow := func(k int) Judge {
		return New("below", func(i int) votes.Label {
			if i < k {
				return votes.Dirty
			}
			return votes.Clean
		})
	}
	// Three judges flag items <4, <6, <2: strict majority flags <4.
	c := NewCommittee(dirtyBelow(4), dirtyBelow(6), dirtyBelow(2))
	got := c.Consensus(8)
	for i := 0; i < 8; i++ {
		want := i < 4
		if got[i] != want {
			t.Fatalf("consensus[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestJudgeAll(t *testing.T) {
	c := NewCommittee(New("odd", func(i int) votes.Label {
		if i%2 == 1 {
			return votes.Dirty
		}
		return votes.Clean
	}))
	got := c.JudgeAll(0, 6)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("JudgeAll = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("JudgeAll = %v, want %v", got, want)
		}
	}
}

// TestCommitteeEndToEnd drives rule-based judges through the estimator
// stack: the committee's diminishing returns behave like worker votes.
func TestCommitteeEndToEnd(t *testing.T) {
	data := dataset.GenerateAddresses(dataset.AddressConfig{Records: 400, Errors: 40, Seed: 13})
	c := NewCommittee(
		RuleJudge("structural", data.Records, rules.MissingValue{}, rules.ZipFormat{}),
		RuleJudge("reference", data.Records, rules.CityName{}, rules.StateCode{}, rules.ZipRange{}),
		RuleJudge("fd", data.Records, rules.ZipCityFD{}),
		RuleJudge("business", data.Records, rules.BusinessKeyword{}),
		RuleJudge("full", data.Records),
	)
	m := votes.NewMatrix(len(data.Records))
	for _, task := range c.Tasks(len(data.Records), 10, xrand.New(2)) {
		for _, v := range task.AppendVotes(nil) {
			m.Add(v)
		}
	}
	// The committee consensus must be clean-safe (rules have no FPs on
	// generated data) and must catch a majority-detectable subset.
	if m.Majority() == 0 {
		t.Fatal("committee found nothing")
	}
	if m.Majority() > int64(data.Truth.NumDirty()) {
		t.Fatalf("majority %d exceeds true errors %d", m.Majority(), data.Truth.NumDirty())
	}
	// Nominal ≥ majority: single strict judges flag more than the quorum.
	if m.Nominal() < m.Majority() {
		t.Fatal("nominal below majority")
	}
}

// ThresholdJudge builds a similarity-threshold classifier: item i is dirty
// when score(i) ≥ threshold. This is the entity-resolution flavor of an
// algorithmic cleaner (CrowdER's first stage run to completion).
func ThresholdJudge(name string, score func(item int) float64, threshold float64) Judge {
	return New(name, func(item int) votes.Label {
		if score(item) >= threshold {
			return votes.Dirty
		}
		return votes.Clean
	})
}
