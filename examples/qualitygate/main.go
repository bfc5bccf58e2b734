// Quality-gate example: the metric exists to drive a decision — keep
// cleaning, or stop the pipeline? — and this example wires the whole
// alerting loop in-process:
//
//   - a windowed session ingests a drifting vote stream (same "bad deploy"
//     scenario as examples/monitoring: a fresh batch of errors is planted
//     long after the all-time estimate has converged);
//   - a declarative policy gates on the estimated REMAINING undetected
//     errors (critical → quarantine) and on the windowed drift ratio
//     (warning → warn);
//   - the gate is attached through a watch hub (internal/hub), whose one
//     pump per session re-evaluates it off the session's version notifier
//     exactly as dqm-serve's does — no polling loop anywhere in this file;
//   - every action transition is POSTed as a webhook to a local HTTP
//     receiver through the bounded retry dispatcher, exactly as dqm-serve
//     delivers pages.
//
// Expected output: the gate quarantines the initial backlog, relaxes as
// cleaning converges, and occasionally warns when the decayed window sees
// residual errors the all-time estimate has written off. After the deploy
// the warning latches: the windowed view persistently reports fresh errors
// (the drift ratio pegs at its clamp) that the anchored all-time estimate
// never re-reports — exactly the blind spot the drift rule exists to cover.
// Each transition is POSTed to the webhook receiver, which prints the
// decision document it was paged with. (Exact transition versions vary with
// scheduling: evaluation is asynchronous by design.) The example exits 1
// unless at least one transition reached the receiver and no delivery was
// dead-lettered.
//
// Run with: go run ./examples/qualitygate
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"dqm"
	"dqm/internal/hub"
	"dqm/internal/policy"
)

// source adapts *dqm.Session to hub.Session — the same adapter shape
// dqm-serve uses: the session's version notifier plus the gate inputs. The
// version is read BEFORE the estimates so a concurrent mutation makes the
// snapshot look stale (forcing a fresh evaluation) rather than current.
type source struct{ *dqm.Session }

func (s source) Inputs(need policy.Needs) (policy.Inputs, error) {
	in := policy.Inputs{Version: s.Version()}
	est := s.Estimates()
	in.Remaining = est.Remaining()
	in.SwitchTotal = est.Switch.Total
	in.Tasks = s.Tasks()
	in.Votes = s.TotalVotes()
	if need.Drift {
		if we, err := s.WindowEstimates(dqm.WindowDecayed); err == nil {
			in.DriftRatio = policy.DriftRatio(we.Estimates.Remaining(), in.Remaining)
			in.HasDrift = true
		}
	}
	return in, nil
}

func main() {
	const (
		seed         = 7
		nItems       = 2000
		itemsPerTask = 40
		fpRate       = 0.02
		fnRate       = 0.15
		phase1Tasks  = 400
		phase2Tasks  = 400
	)
	rng := rand.New(rand.NewSource(seed))

	// Ground truth: 2% of items start dirty; mid-run a "bad deploy" corrupts
	// another 6%, quadrupling the backlog the crowd has to find.
	dirty := make([]bool, nItems)
	plant := func(count int) {
		for planted := 0; planted < count; {
			i := rng.Intn(nItems)
			if !dirty[i] {
				dirty[i] = true
				planted++
			}
		}
	}
	plant(nItems * 2 / 100)

	// A local webhook receiver standing in for a pager: prints every decision
	// document the dispatcher delivers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	var received atomic.Int64
	hookSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var dec policy.Decision
		if err := json.NewDecoder(r.Body).Decode(&dec); err == nil {
			received.Add(1)
			fmt.Printf("  WEBHOOK %-10s session=%s version=%d tasks=%d violations=%d\n",
				dec.Action, dec.Session, dec.Version, dec.Tasks, len(dec.Violations))
		}
		w.WriteHeader(http.StatusNoContent)
	})}
	go hookSrv.Serve(ln)
	defer hookSrv.Close()
	hookURL := "http://" + ln.Addr().String() + "/pager"

	eng := dqm.NewEngine(dqm.EngineConfig{})
	cfg := dqm.Defaults()
	cfg.Window = &dqm.WindowConfig{Size: 80, Stride: 20, DecayAlpha: 0.3}
	sess, err := eng.CreateSession("orders", nItems, cfg)
	if err != nil {
		panic(err)
	}

	// The policy: quarantine while more than 25 estimated errors remain
	// undetected, warn when the decayed window reports an order of magnitude
	// more remaining errors than the all-time view (the signature of fresh
	// corruption the converged estimate is blind to). min_tasks keeps the
	// first noisy estimates from paging anyone. This JSON is exactly what
	// PUT /v1/sessions/orders/policy accepts.
	pol, err := policy.Parse([]byte(fmt.Sprintf(`{
		"rules": [
			{"name":"too-dirty", "metric":"remaining",   "op":">", "value":25},
			{"name":"drifting",  "metric":"drift_ratio", "op":">", "value":10,
			 "severity":"warning"}
		],
		"min_tasks": 20,
		"webhook": {"url": %q}
	}`, hookURL)))
	if err != nil {
		panic(err)
	}

	dispatcher := policy.NewDispatcher(policy.DispatcherConfig{})
	defer dispatcher.Close()
	var transitions atomic.Int64
	h := hub.New(hub.Config{
		Resolve: func(string) (hub.Session, bool) { return source{sess}, true },
		// Nothing here watches or reads estimates, so no frame is encoded.
		Encode:          func(hub.Session, hub.View) ([]byte, uint64, error) { return nil, 0, nil },
		GateMinInterval: time.Millisecond,
		OnTransition: func(_ *policy.Gate, from policy.Action, f *policy.Frame) {
			transitions.Add(1)
			fmt.Printf("TRANSITION %s -> %s at version %d (remaining=%.0f)\n",
				from, f.Action, f.Version, f.Decision.Inputs.Remaining)
			dispatcher.Enqueue(policy.Delivery{URL: hookURL, Body: f.Body})
		},
	})
	defer h.Close()
	gate, _ := h.AttachGate("orders", pol)

	oneTask := func(worker int) {
		batch := make([]dqm.Vote, 0, itemsPerTask)
		for k := 0; k < itemsPerTask; k++ {
			item := rng.Intn(nItems)
			vote := dirty[item]
			if vote {
				if rng.Float64() < fnRate {
					vote = false
				}
			} else if rng.Float64() < fpRate {
				vote = true
			}
			batch = append(batch, dqm.Vote{Item: item, Worker: worker, Dirty: vote})
		}
		if err := sess.AppendVotes(batch, true); err != nil {
			panic(err)
		}
	}

	report := func(task int) {
		// Wait out the gate's coalescing interval so the decision reflects
		// this task — a real client just reads GET .../gate, which serves the
		// cached frame with an ETag.
		for gate.Stale() {
			time.Sleep(time.Millisecond)
		}
		f := gate.Frame()
		drift := 0.0
		if f.Decision.Inputs.DriftRatio != nil {
			drift = *f.Decision.Inputs.DriftRatio
		}
		fmt.Printf("%7d tasks  action=%-10s remaining=%6.0f drift=%8.2f armed=%v\n",
			task, f.Action, f.Decision.Inputs.Remaining, drift, f.Decision.Armed)
	}

	fmt.Printf("gate policy: quarantine while remaining > 25; drift warning > 10\n\n")
	task := 0
	for ; task < phase1Tasks; task++ {
		oneTask(task % 25)
		if (task+1)%50 == 0 {
			report(task + 1)
		}
	}

	plant(nItems * 6 / 100)
	fmt.Printf("        ---- bad deploy: %d items corrupted ----\n", nItems*6/100)

	for ; task < phase1Tasks+phase2Tasks; task++ {
		oneTask(task % 25)
		if (task+1)%50 == 0 {
			report(task + 1)
		}
	}

	// Let in-flight webhook deliveries drain before exiting: every transition
	// terminates as exactly one delivery or one dead letter.
	for i := 0; i < 500 && dispatcher.Deliveries()+dispatcher.DeadLetters() < transitions.Load(); i++ {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("\nwebhook deliveries=%d dead_letters=%d\n",
		dispatcher.Deliveries(), dispatcher.DeadLetters())
	if received.Load() == 0 || dispatcher.DeadLetters() != 0 {
		fmt.Fprintln(os.Stderr, "qualitygate: want at least one transition delivered and no dead letters")
		os.Exit(1)
	}
}
