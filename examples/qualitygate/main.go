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
// Each transition is POSTed to the webhook receiver, which records the
// decision document it was paged with. The hub's pump and the receiver run on
// goroutines of their own, so they only record what they saw: at each report
// main waits until the gate has decided on the current version and every page
// has landed, then prints the transitions in order and the pages by version,
// so every run prints the same bytes. The example exits 1 unless at least one
// transition reached the receiver and no delivery was dead-lettered.
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
	"sort"
	"sync"
	"time"

	"dqm"
	"dqm/internal/hub"
	"dqm/internal/policy"
)

// source adapts *dqm.Session to hub.Session — the same adapter shape
// dqm-serve uses: the session's version notifier plus the gate inputs. The
// version is read BEFORE the estimates so a concurrent mutation makes the
// snapshot look stale (forcing a fresh evaluation) rather than current.
// Unlike dqm-serve's, it reads under ingest, which main holds while it
// ingests a burst of tasks: the gate decides at the versions main reports,
// not at whatever version its pump finds, so every run takes the same
// decisions.
type source struct {
	*dqm.Session
	ingest *sync.RWMutex
}

func (s source) Inputs(need policy.Needs) (policy.Inputs, error) {
	s.ingest.RLock()
	defer s.ingest.RUnlock()
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

	// What the hub's pump and the webhook receiver saw, for main to print:
	// transition lines in pump order, the action the last one moved to and
	// how many there were, and the decision documents paged.
	var (
		mu          sync.Mutex
		transitions []string
		lastAction  = policy.ActionProceed
		enqueued    int64
		pages       []policy.Decision
	)

	// A local webhook receiver standing in for a pager: records every
	// decision document the dispatcher delivers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hookSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var dec policy.Decision
		if err := json.NewDecoder(r.Body).Decode(&dec); err == nil {
			mu.Lock()
			pages = append(pages, dec)
			mu.Unlock()
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
	var ingest sync.RWMutex
	h := hub.New(hub.Config{
		Resolve: func(string) (hub.Session, bool) { return source{sess, &ingest}, true },
		// Nothing here watches or reads estimates, so no frame is encoded.
		Encode:          func(hub.Session, hub.View) ([]byte, uint64, error) { return nil, 0, nil },
		GateMinInterval: time.Millisecond,
		OnTransition: func(_ *policy.Gate, from policy.Action, f *policy.Frame) {
			mu.Lock()
			transitions = append(transitions, fmt.Sprintf("TRANSITION %s -> %s at version %d (remaining=%.0f)",
				from, f.Action, f.Version, f.Decision.Inputs.Remaining))
			lastAction = f.Action
			enqueued++
			mu.Unlock()
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

	// flush waits until the gate has decided on the current version, the pump
	// has recorded the transition to that decision's action, and every page
	// enqueued so far was delivered or dead-lettered (for at most 5 s), then
	// prints the transitions and the pages recorded since the last flush. It
	// returns how many pages it printed.
	flush := func() int {
		for i := 0; i < 5000; i++ {
			mu.Lock()
			settled := !gate.Stale() && gate.Frame().Action == lastAction &&
				dispatcher.Deliveries()+dispatcher.DeadLetters() == enqueued
			mu.Unlock()
			if settled {
				break
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, line := range transitions {
			fmt.Println(line)
		}
		sort.SliceStable(pages, func(i, j int) bool { return pages[i].Version < pages[j].Version })
		for _, dec := range pages {
			fmt.Printf("  WEBHOOK %-10s session=%s version=%d tasks=%d violations=%d\n",
				dec.Action, dec.Session, dec.Version, dec.Tasks, len(dec.Violations))
		}
		n := len(pages)
		transitions, pages = transitions[:0], pages[:0]
		return n
	}

	paged := 0
	report := func(task int) {
		// Wait out the gate's coalescing interval so the decision reflects
		// this task — a real client just reads GET .../gate, which serves the
		// cached frame with an ETag.
		for gate.Stale() {
			time.Sleep(time.Millisecond)
		}
		paged += flush()
		f := gate.Frame()
		drift := 0.0
		if f.Decision.Inputs.DriftRatio != nil {
			drift = *f.Decision.Inputs.DriftRatio
		}
		fmt.Printf("%7d tasks  action=%-10s remaining=%6.0f drift=%8.2f armed=%v\n",
			task, f.Action, f.Decision.Inputs.Remaining, drift, f.Decision.Armed)
	}

	// run ingests n tasks in bursts of 50, reporting after each. The gate's
	// reads wait for the burst to end.
	task := 0
	run := func(n int) {
		for end := task + n; task < end; {
			ingest.Lock()
			for k := 0; k < 50; k++ {
				oneTask(task % 25)
				task++
			}
			ingest.Unlock()
			report(task)
		}
	}

	fmt.Printf("gate policy: quarantine while remaining > 25; drift warning > 10\n\n")
	run(phase1Tasks)
	plant(nItems * 6 / 100)
	fmt.Printf("        ---- bad deploy: %d items corrupted ----\n", nItems*6/100)
	run(phase2Tasks)

	// Let in-flight webhook deliveries drain before exiting: every transition
	// terminates as exactly one delivery or one dead letter.
	paged += flush()
	fmt.Printf("\nwebhook deliveries=%d dead_letters=%d\n",
		dispatcher.Deliveries(), dispatcher.DeadLetters())
	if paged == 0 || dispatcher.DeadLetters() != 0 {
		fmt.Fprintln(os.Stderr, "qualitygate: want at least one transition delivered and no dead letters")
		os.Exit(1)
	}
}
