package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dqm"
)

const (
	ctypeJSON = "application/json"
	ctypeDQMV = "application/x-dqmv"
)

// Session configs of the workloads: monitor and watch sessions carry the
// windowed views and a policy; monitor also tracks confidence for ?ci reads.
const (
	windowJSON = `{"size":50,"stride":25,"decay_alpha":0.3}`
	policyJSON = `{"rules":[{"name":"too-dirty","metric":"remaining","op":">","value":50},` +
		`{"name":"drifting","metric":"drift_ratio","op":">","value":0.5,"severity":"warning"}],"min_tasks":10}`
)

// runner executes one pass of one workload against a fresh dqm-serve.
type runner struct {
	name string
	p    *params
	seed uint64
	bin  string
	work string  // scratch directory for this pass's data dirs
	tr   *tracer // nil on untraced passes
	res  *pass
	mu   sync.Mutex // guards res.attempted, res.failed, res.problems
}

// connLog is what one connection did. Only the connection's own goroutine
// writes it. It holds enough to regenerate and replay the acknowledged part
// of the connection's op stream.
type connLog struct {
	conn   int
	sent   int          // ops issued: the stream prefix the server saw
	missed int          // open-loop ops still unsent at the deadline
	failed map[int]bool // indices of ops that failed
	start  []time.Time  // send time of every op, for the replay order
	acked  map[int]int  // acknowledged votes per session
	lat    [numOpKinds]samples
	late   samples // open-loop send lateness, ms
	// Votes acknowledged inside the measured window, and the last such ack.
	windowVotes   int
	windowLastAck time.Time
}

// ackedInWindow counts an acknowledged write toward the write rate and
// reports whether its ack fell inside the measured window.
func (l *connLog) ackedInWindow(votes int, ack time.Time, window [2]time.Time) bool {
	if ack.Before(window[0]) || !ack.Before(window[1]) {
		return false
	}
	l.windowVotes += votes
	l.windowLastAck = ack
	return true
}

func newConnLog(conn int) *connLog {
	return &connLog{conn: conn, failed: map[int]bool{}, acked: map[int]int{}}
}

// pass collects everything one run of a workload measured.
type pass struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]metric
	logs              []*connLog
	sessions          int
	final             map[int]estDoc // each session's estimates at the end, from the server
	durableDir        string         // restart: the data dir the replay opens a copy of
	cpu               time.Duration  // this process's CPU time over the pass
	window            [2]time.Time   // the measured phase; zero for restart
}

func newPass() *pass { return &pass{e2e: map[string]metric{}, layer: map[string]metric{}} }

// lat merges the connections' latencies of one op kind.
func (ps *pass) lat(k opKind) samples {
	var s samples
	for _, l := range ps.logs {
		s = append(s, l.lat[k]...)
	}
	return s
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.failed++
	r.res.problems = append(r.res.problems, fmt.Sprintf(format, args...))
}

func (r *runner) attempt(n int) {
	r.mu.Lock()
	r.res.attempted += n
	r.mu.Unlock()
}

func (r *runner) set(name string, v float64, n int) {
	m, ok := metricSpec(name)
	if !ok {
		panic("bench: metric not in spec.json: " + name)
	}
	dst := r.res.e2e
	if m.Layer != "" {
		dst = r.res.layer
	}
	dst[name] = metric{Value: v, Unit: m.Unit, N: n}
}

// setPct sets a percentile metric with its sample count, and says so when
// fewer than ten samples lie beyond the percentile.
func (r *runner) setPct(name string, s samples, p float64) {
	r.set(name, percentile(s.sorted(), p), len(s))
	if n := beyond(len(s), p); len(s) > 0 && n < 10 {
		fmt.Fprintf(os.Stderr, "%s %s: only %d samples beyond p%g\n", r.name, name, n, p)
	}
}

func (r *runner) sessionID(i int) string { return fmt.Sprintf("%s-%d", r.name, i) }

// sessionConfig is the dqm.Config equivalent of the sessions' wire config,
// for the in-process replays.
func (r *runner) sessionConfig() dqm.Config {
	cfg := dqm.Defaults()
	if r.name == "monitor" || r.name == "watch" {
		cfg.Window = &dqm.WindowConfig{Size: 50, Stride: 25, DecayAlpha: 0.3}
	}
	cfg.TrackConfidence = r.name == "monitor"
	return cfg
}

// createSessions creates the workload's sessions (and policies) over c.
func (r *runner) createSessions(c *conn, n int) error {
	config := ""
	switch r.name {
	case "monitor":
		config = `,"config":{"track_confidence":true,"window":` + windowJSON + `}`
	case "watch":
		config = `,"config":{"window":` + windowJSON + `}`
	}
	for i := 0; i < n; i++ {
		id := r.sessionID(i)
		body := fmt.Sprintf(`{"id":%q,"items":%d%s}`, id, r.p.items, config)
		if _, err := c.send(http.MethodPost, "/v1/sessions", ctypeJSON, []byte(body), http.StatusCreated); err != nil {
			return err
		}
		if config != "" {
			if _, err := c.send(http.MethodPut, "/v1/sessions/"+id+"/policy", ctypeJSON, []byte(policyJSON), http.StatusOK); err != nil {
				return err
			}
		}
	}
	r.res.sessions = n
	return nil
}

func (r *runner) serverFlags() []string {
	ws, _ := workloadSpec(r.name)
	return ws.ServerFlags
}

// setup starts the server p.setups times on a fresh data dir and runs
// prepare on each, timing spawn → prepared. All but the last server are
// discarded; setup_s is the median, so work moved into set-up shows.
func (r *runner) setup(prepare func(s *server, cs [2]*conn) error) (*server, [2]*conn, error) {
	var took, boots samples
	for k := 0; k < r.p.setups; k++ {
		dir := filepath.Join(r.work, fmt.Sprintf("%s-data-%d", r.name, k))
		if err := os.RemoveAll(dir); err != nil {
			return nil, [2]*conn{}, err
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, [2]*conn{}, err
		}
		cs := [2]*conn{newConn(addr), newConn(addr)}
		srv, err := spawn(r.bin, addr, dir, r.serverFlags())
		if err != nil {
			return nil, [2]*conn{}, err
		}
		boot, _, err := srv.waitReady(cs[0], time.Minute, nil, 0)
		if err == nil {
			err = prepare(srv, cs)
		}
		if err != nil {
			r.teardown(srv, cs)
			return nil, [2]*conn{}, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(srv.spawned).Seconds())
		boots.addDur(boot)
		if k == r.p.setups-1 {
			r.set("setup_s", median(took), len(took))
			r.set("serve.boot_ready_ms", median(boots), len(boots))
			return srv, cs, nil
		}
		r.teardown(srv, cs)
		if err := os.RemoveAll(dir); err != nil {
			return nil, [2]*conn{}, err
		}
	}
	return nil, [2]*conn{}, errors.New("set-up: no set-ups configured")
}

// teardown stops the server and drops the connections.
func (r *runner) teardown(srv *server, cs [2]*conn) {
	srv.kill()
	cs[0].close()
	cs[1].close()
}

// snap is the server's state at a phase boundary.
type snap struct {
	at      time.Time
	metrics scrape
	cpu     time.Duration
}

func (r *runner) snapshot(srv *server, c *conn) snap {
	s := snap{at: time.Now()}
	if resp, err := c.get("/metrics"); err != nil || resp.status != 200 {
		r.fail("scrape /metrics: status %d, %v", resp.status, err)
	} else if s.metrics, err = parseProm(resp.body); err != nil {
		r.fail("parse /metrics: %v", err)
	}
	cpu, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		r.fail("server CPU: %v", err)
	}
	s.cpu = cpu
	return s
}

// voteReply is the votes endpoint's success body.
type voteReply struct {
	Ingested   int   `json:"ingested"`
	TasksEnded int   `json:"tasks_ended"`
	Tasks      int64 `json:"tasks"`
}

// write sends op i of a write stream and returns the session's task count
// after it and the ack time; ok is false when the op failed. due is when the
// op was scheduled (closed loop: when it was issued).
func (r *runner) write(c *conn, l *connLog, i int, o op, due time.Time, buf *[]byte) (tasks int64, ack time.Time, ok bool) {
	path := "/v1/sessions/" + r.sessionID(o.session) + "/votes"
	l.sent++
	l.start = append(l.start, time.Now())
	var ctype string
	if o.kind == opVotesDQMV {
		*buf, ctype = appendDQMV((*buf)[:0], o.votes, r.p.taskVotes), ctypeDQMV
	} else {
		*buf, ctype = appendVotesJSON((*buf)[:0], o.votes), ctypeJSON
	}
	t1 := time.Now()
	resp, err := c.do(http.MethodPost, path, ctype, *buf, "")
	ack = time.Now()
	r.tr.add("serve."+o.kind.String(), opID(l.conn, i), t1, ack)
	var vr voteReply
	if err == nil && resp.status == 200 {
		err = json.Unmarshal(resp.body, &vr)
	}
	r.tr.addID(opID(l.conn, i), "op."+o.kind.String(), 0, due, time.Now())
	wantTasks := len(o.votes) / r.p.taskVotes
	switch {
	case err != nil:
		r.fail("%s op %d: %v", o.kind, i, err)
	case resp.status != 200:
		r.fail("%s op %d: status %d: %s", o.kind, i, resp.status, resp.body)
	case vr.Ingested != len(o.votes) || vr.TasksEnded != wantTasks:
		r.fail("%s op %d: ingested %d votes / %d tasks, sent %d / %d", o.kind, i, vr.Ingested, vr.TasksEnded, len(o.votes), wantTasks)
	default:
		l.acked[o.session] += len(o.votes)
		return vr.Tasks, ack, true
	}
	l.failed[i] = true
	return 0, ack, false
}

// read sends one dashboard read and reports whether it succeeded and whether
// it was answered 304. etags holds the last ETag seen per session, for the
// conditional reads.
func (r *runner) read(c *conn, l *connLog, i int, o op, due time.Time, etags map[int]string) (ok, notModified bool) {
	id := r.sessionID(o.session)
	path, inm := "/v1/sessions/"+id+"/estimates", ""
	switch o.kind {
	case opEstimates:
		inm = etags[o.session]
	case opEstimatesWindow:
		path += "?window=current"
	case opEstimatesCI:
		path += fmt.Sprintf("?ci=0.95&replicates=%d", r.p.ciReplicates)
	case opGate:
		path = "/v1/sessions/" + id + "/gate"
	}
	l.sent++
	t0 := time.Now()
	l.start = append(l.start, t0)
	resp, err := c.do(http.MethodGet, path, "", nil, inm)
	t1 := time.Now()
	r.tr.add("serve."+o.kind.String(), opID(l.conn, i), t0, t1)
	r.tr.addID(opID(l.conn, i), "op."+o.kind.String(), 0, due, t1)
	if err != nil || !(resp.status == 200 || (resp.status == http.StatusNotModified && inm != "")) {
		l.failed[i] = true
		if err != nil {
			r.fail("%s op %d: %v", o.kind, i, err)
		} else {
			r.fail("%s op %d: status %d: %s", o.kind, i, resp.status, resp.body)
		}
		return false, false
	}
	if o.kind == opEstimates {
		etags[o.session] = resp.etag
	}
	return true, resp.status == http.StatusNotModified
}

// writePhase derives the write-path layer metrics from the server's state at
// the two ends of the write phase.
func (r *runner) writePhase(a, b snap) {
	d := b.metrics.delta(a.metrics)
	votes := d["dqm_engine_votes_total"]
	r.set("serve.handler.votes.mean_ms", 1e3*d.histMean("dqm_http_request_seconds", `route="votes"`), int(d[key("dqm_http_request_seconds_count", `route="votes"`)]))
	r.set("serve.cpu_ms_per_kvote", float64(b.cpu-a.cpu)/float64(time.Millisecond)/(votes/1000), int(votes))
	r.set("wal.append.mean_us", 1e6*d.histMean("dqm_wal_append_seconds"), int(d["dqm_wal_append_seconds_count"]))
	r.set("wal.fsync.mean_ms", 1e3*d.histMean("dqm_wal_fsync_seconds"), int(d["dqm_wal_fsync_seconds_count"]))
	r.set("wal.fsyncs_per_kvote", 1e3*d.ratio("dqm_wal_fsyncs_total", "dqm_engine_votes_total"), int(votes))
	r.set("wal.flushed_bytes_per_vote", d.ratio("dqm_wal_flushed_bytes_total", "dqm_engine_votes_total"), int(votes))
	r.set("wal.group_commit_sessions.mean", d.histMean("dqm_wal_group_commit_sessions"), int(d["dqm_wal_group_commit_sessions_count"]))
	compactions, ok := d["dqm_wal_compactions_total"]
	if !ok {
		compactions = math.NaN()
	}
	r.set("wal.compactions", compactions, 0)
}

func ratioOrNaN(n, d float64) float64 {
	if d == 0 {
		return math.NaN()
	}
	return n / d
}

// estDoc is the numeric content of an estimates document; version is left
// out because replay rebases it.
type estDoc struct {
	Nominal float64 `json:"nominal"`
	Voting  float64 `json:"voting"`
	Chao92  float64 `json:"chao92"`
	VChao92 float64 `json:"v_chao92"`
	Switch  struct {
		Total             float64 `json:"total"`
		XiPos             float64 `json:"xi_pos"`
		XiNeg             float64 `json:"xi_neg"`
		RemainingSwitches float64 `json:"remaining_switches"`
		Trend             string  `json:"trend"`
	} `json:"switch"`
	Remaining float64 `json:"remaining"`
	Tasks     int64   `json:"tasks"`
	Votes     int64   `json:"votes"`
}

// docOf renders an in-process session the way the server does.
func docOf(sess *dqm.Session) estDoc {
	e := sess.Estimates()
	var d estDoc
	d.Nominal, d.Voting, d.Chao92, d.VChao92 = e.Nominal, e.Voting, e.Chao92, e.VChao92
	d.Switch.Total, d.Switch.XiPos, d.Switch.XiNeg = e.Switch.Total, e.Switch.XiPos, e.Switch.XiNeg
	d.Switch.RemainingSwitches = e.Switch.RemainingSwitches
	d.Switch.Trend = "flat"
	if e.Switch.TrendUp {
		d.Switch.Trend = "up"
	} else if e.Switch.TrendDown {
		d.Switch.Trend = "down"
	}
	d.Remaining = e.Remaining()
	d.Tasks, d.Votes = sess.Tasks(), sess.TotalVotes()
	return d
}

// ackedBySession sums the acknowledged votes per session over the pass's
// connections.
func (r *runner) ackedBySession() map[int]int {
	acked := map[int]int{}
	for _, l := range r.res.logs {
		for s, n := range l.acked {
			acked[s] += n
		}
	}
	return acked
}

// ackedVotes is the total acknowledged votes of the pass.
func (r *runner) ackedVotes() int {
	n := 0
	for _, v := range r.ackedBySession() {
		n += v
	}
	return n
}

// getJSON GETs path over c and decodes a 200 body into v.
func getJSON(c *conn, path string, v any) error {
	resp, err := c.send(http.MethodGet, path, "", nil, http.StatusOK)
	if err != nil {
		return err
	}
	return json.Unmarshal(resp.body, v)
}

// fetchFinal reads every session's info and estimates after the run: the
// server's vote count must equal the votes it acknowledged.
func (r *runner) fetchFinal(c *conn) {
	acked := r.ackedBySession()
	r.res.final = map[int]estDoc{}
	for i := 0; i < r.res.sessions; i++ {
		id := r.sessionID(i)
		var info struct {
			Votes int `json:"votes"`
		}
		if err := getJSON(c, "/v1/sessions/"+id, &info); err != nil {
			r.fail("session info %s: %v", id, err)
		} else if info.Votes != acked[i] {
			r.fail("session %s holds %d votes, %d were acknowledged", id, info.Votes, acked[i])
		}
		var d estDoc
		if err := getJSON(c, "/v1/sessions/"+id+"/estimates", &d); err != nil {
			r.fail("estimates %s: %v", id, err)
		}
		r.res.final[i] = d
	}
}

// awaitGates polls every session's gate until its decision covers the
// session's acknowledged task count and reports the slowest catch-up,
// measured from the last acknowledged write. Missing p.quiesce is a failed
// check.
func (r *runner) awaitGates(c *conn, lastAck time.Time) {
	acked := r.ackedBySession()
	deadline := time.Now().Add(r.p.quiesce)
	slowest := time.Duration(0)
	for i := 0; i < r.res.sessions; i++ {
		for {
			var g struct {
				Tasks int64 `json:"tasks"`
			}
			if err := getJSON(c, "/v1/sessions/"+r.sessionID(i)+"/gate", &g); err != nil {
				r.fail("gate %s: %v", r.sessionID(i), err)
				break
			}
			want := int64(acked[i] / r.p.taskVotes)
			if g.Tasks == want {
				slowest = max(slowest, time.Since(lastAck))
				break
			}
			if time.Now().After(deadline) {
				r.fail("gate %s stuck at %d tasks, want %d, %s after quiesce", r.sessionID(i), g.Tasks, want, r.p.quiesce)
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	r.set("policy.gate_quiesce_ms", float64(slowest)/float64(time.Millisecond), r.res.sessions)
}

// policyLayer reports the gate counters over the whole pass. At least one
// action transition is part of the workload's design: the dirty-rate jump.
func (r *runner) policyLayer(total scrape) {
	r.set("policy.evaluations_per_task", total.ratio("dqm_gate_evaluations_total", "dqm_engine_tasks_total"), int(total["dqm_engine_tasks_total"]))
	tr, ok := total["dqm_gate_transitions_total"]
	if !ok {
		r.set("policy.transitions", math.NaN(), 0)
		return
	}
	r.set("policy.transitions", tr, 0)
	if tr < 1 {
		r.fail("no gate action transition in the whole run")
	}
}

// finishWrites records what the write-stream workloads share: the
// write-path layer metrics, the final server state and its data dir size.
func (r *runner) finishWrites(srv *server, c *conn, a, b snap) {
	r.writePhase(a, b)
	r.fetchFinal(c)
	// The batch syncer hands buffered frames to the OS at least once per
	// 100ms; wait that out so the data dir holds every acknowledged vote.
	time.Sleep(150 * time.Millisecond)
	r.disk(srv)
}

func (r *runner) disk(srv *server) {
	total := r.ackedVotes()
	bytes, err := dirBytes(srv.dir)
	if err != nil {
		r.fail("data dir size: %v", err)
	}
	r.set("disk_bytes_per_vote", float64(bytes)/float64(total), total)
}

// rss reads the server's peak resident set (VmHWM) in MB.
func (r *runner) rss(srv *server) float64 {
	mb, err := procHWM(srv.cmd.Process.Pid)
	if err != nil {
		r.fail("server RSS: %v", err)
		return math.NaN()
	}
	return mb
}

// runIngest: two closed-loop connections saturate the write path, conn 0
// with JSON bodies on the first half of the sessions, conn 1 with DQMV
// bodies on the second half.
func runIngest(r *runner) error {
	p := r.p
	srv, cs, err := r.setup(func(_ *server, cs [2]*conn) error { return r.createSessions(cs[0], p.ingestSessions) })
	if err != nil {
		return err
	}
	defer r.teardown(srv, cs)
	start := time.Now()
	mStart, mEnd := start.Add(p.warmup), start.Add(p.warmup+p.measure)
	r.res.window = [2]time.Time{mStart, mEnd}
	var a snap
	r.res.logs = []*connLog{newConnLog(0), newConnLog(1)}
	// A closed loop stores as many votes as the server takes, so the peak
	// RSS at the end would follow throughput. It is read instead when the
	// server has acknowledged p.rssVotes votes, by the sender whose ack
	// crosses that count; wg.Wait orders the write before the read below.
	// Writes after mEnd, there only to reach that count, are not timed.
	var acked atomic.Int64
	rss := math.NaN()
	rssEnd := mEnd.Add(p.rssGrace)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			st := newStream(r.seed, r.name, k, p)
			l := r.res.logs[k]
			var buf []byte
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(mEnd) && (acked.Load() >= int64(p.rssVotes) || !t0.Before(rssEnd)) {
					return
				}
				if k == 0 && a.at.IsZero() && !t0.Before(mStart) {
					a = r.snapshot(srv, cs[0])
					t0 = time.Now()
				}
				o := st.next()
				_, ack, ok := r.write(cs[k], l, i, o, t0, &buf)
				if !ok {
					continue
				}
				if n, v := acked.Add(int64(len(o.votes))), int64(p.rssVotes); n >= v && n-int64(len(o.votes)) < v {
					rss = r.rss(srv)
				}
				if l.ackedInWindow(len(o.votes), ack, r.res.window) {
					l.lat[o.kind].addDur(ack.Sub(t0))
				}
			}
		}(k)
	}
	wg.Wait()
	b := r.snapshot(srv, cs[0])
	if math.IsNaN(rss) {
		r.fail("the server acknowledged %d votes, fewer than the %d at which server_rss_mb is read", acked.Load(), p.rssVotes)
	}
	r.set("server_rss_mb", rss, 1)
	// The rate runs to the last ack in the window.
	votes, last := 0, mStart
	for _, l := range r.res.logs {
		votes += l.windowVotes
		if l.windowLastAck.After(last) {
			last = l.windowLastAck
		}
	}
	r.set("ingest_votes_per_s", float64(votes)/last.Sub(mStart).Seconds(), votes)
	posts := append(r.res.lat(opVotesJSON), r.res.lat(opVotesDQMV)...)
	r.setPct("ingest_p50_ms", posts, 50)
	r.setPct("ingest_p90_ms", posts, 90)
	r.finishWrites(srv, cs[0], a, b)
	return nil
}

// writeRec is one acknowledged write to session 0 of watch.
type writeRec struct {
	due time.Time
	op  uint64
}

// openWrites runs the open-loop JSON write stream of monitor and watch on
// conn 0. It snapshots the server when the measured window opens and
// returns session 0's writes keyed by the task count each produced (for
// watch staleness) and the last ack.
func (r *runner) openWrites(srv *server, c *conn, l *connLog, start, mStart, mEnd time.Time, a *snap) (writes map[int64]writeRec, lastAck time.Time) {
	st := newStream(r.seed, r.name, 0, r.p)
	writes = map[int64]writeRec{}
	var buf []byte
	interval := time.Duration(float64(time.Second) / r.p.writeRate)
	l.missed = openLoop(start, mEnd, mEnd.Add(r.p.quiesce), interval, func(i int, due time.Time) {
		if a.at.IsZero() && !due.Before(mStart) {
			*a = r.snapshot(srv, c)
		}
		sent := time.Now()
		o := st.next()
		tasks, ack, ok := r.write(c, l, i, o, due, &buf)
		if !ok {
			return
		}
		lastAck = ack
		if o.session == 0 {
			writes[tasks] = writeRec{due, opID(l.conn, i)}
		}
		if !due.Before(mStart) {
			l.lat[opVotesJSON].addDur(ack.Sub(due))
			l.late.addDur(sent.Sub(due))
		}
	})
	if l.missed > 0 {
		r.fail("write stream fell %d ops behind its schedule", l.missed)
	}
	return writes, lastAck
}

// runMonitor: conn 0 writes at writeRate while conn 1 plays one dashboard
// polling at readRate, both open loop and timed from the scheduled send, so
// a read queued behind a slow CI on the shared connection carries that wait.
func runMonitor(r *runner) error {
	p := r.p
	srv, cs, err := r.setup(func(_ *server, cs [2]*conn) error { return r.createSessions(cs[0], p.monitorSessions) })
	if err != nil {
		return err
	}
	defer r.teardown(srv, cs)
	start := time.Now()
	mStart, mEnd := start.Add(p.warmup), start.Add(p.warmup+p.measure)
	r.res.window = [2]time.Time{mStart, mEnd}
	var a snap
	var lastAck time.Time
	writes, reads := newConnLog(0), newConnLog(1)
	r.res.logs = []*connLog{writes, reads}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, lastAck = r.openWrites(srv, cs[0], writes, start, mStart, mEnd, &a)
	}()
	etags := map[int]string{}
	st := newStream(r.seed, r.name, 1, p)
	interval := time.Duration(float64(time.Second) / p.readRate)
	readsInWindow, notModified := 0, 0
	reads.missed = openLoop(start.Add(p.readDelay), mEnd, mEnd.Add(p.quiesce), interval, func(i int, due time.Time) {
		sent := time.Now()
		o := st.next()
		ok, nm := r.read(cs[1], reads, i, o, due, etags)
		if ok && !due.Before(mStart) {
			reads.lat[o.kind].addDur(time.Since(due))
			reads.late.addDur(sent.Sub(due))
			readsInWindow++
			if nm {
				notModified++
			}
		}
	})
	if reads.missed > 0 {
		r.fail("read stream fell %d ops behind its schedule", reads.missed)
	}
	wg.Wait()
	b := r.snapshot(srv, cs[0])

	var dash samples
	for _, k := range []opKind{opEstimates, opEstimatesWindow, opGate} {
		dash = append(dash, reads.lat[k]...)
	}
	r.setPct("ingest_p50_ms", writes.lat[opVotesJSON], 50)
	r.setPct("ingest_p90_ms", writes.lat[opVotesJSON], 90)
	r.setPct("read_p50_ms", dash, 50)
	r.setPct("read_p90_ms", dash, 90)
	r.setPct("ci_p50_ms", reads.lat[opEstimatesCI], 50)
	r.setPct("ci_p90_ms", reads.lat[opEstimatesCI], 90)

	d := b.metrics.delta(a.metrics)
	route := func(name string) (float64, int) {
		return 1e3 * d.histMean("dqm_http_request_seconds", `route="`+name+`"`),
			int(d[key("dqm_http_request_seconds_count", `route="`+name+`"`)])
	}
	v, n := route("estimates")
	r.set("serve.handler.estimates.mean_ms", v, n)
	v, n = route("gate")
	r.set("serve.handler.gate.mean_ms", v, n)
	r.set("serve.cpu_ms_per_read", float64(b.cpu-a.cpu)/float64(time.Millisecond)/float64(readsInWindow), readsInWindow)
	condReads := len(reads.lat[opEstimates])
	r.set("serve.not_modified_ratio", ratioOrNaN(float64(notModified), float64(condReads)), condReads)
	hits, misses := d["dqm_engine_estimate_cache_hits_total"], d["dqm_engine_estimate_cache_misses_total"]
	r.set("engine.estimate_cache_hit_ratio", ratioOrNaN(hits, hits+misses), int(hits+misses))
	paths := 0.0
	for _, path := range []string{"cached", "incremental", "full"} {
		paths += d[key("dqm_engine_estimate_seconds_count", `path="`+path+`"`)]
	}
	r.set("engine.estimate_full_ratio", ratioOrNaN(d[key("dqm_engine_estimate_seconds_count", `path="full"`)], paths), int(paths))
	r.set("estimator.bootstrap.mean_ms", 1e3*d.histMean("dqm_engine_bootstrap_seconds"), int(d["dqm_engine_bootstrap_seconds_count"]))
	ciReads := len(reads.lat[opEstimatesCI])
	r.set("estimator.bootstraps_per_ci_read", ratioOrNaN(d["dqm_engine_bootstrap_seconds_count"], float64(ciReads)), ciReads)
	encoded := condReads + len(reads.lat[opEstimatesWindow]) - notModified
	r.set("hub.encodes_per_read", ratioOrNaN(d["dqm_hub_encodes_total"], float64(encoded)), encoded)

	r.awaitGates(cs[0], lastAck)
	r.finishWrites(srv, cs[0], a, b)
	r.set("server_rss_mb", r.rss(srv), 1)
	r.policyLayer(r.snapshot(srv, cs[0]).metrics)
	return nil
}

// runWatch: conn 0 writes at writeRate (40% to session 0) while conn 1
// holds one SSE stream on session 0. Staleness is the time a frame arrives
// minus the scheduled send of the write that produced its task count. Timed
// from that write's ack instead, the push usually wins the race against the
// ack reaching the client and the median sits a few µs either side of zero,
// where no relative bound means anything.
func runWatch(r *runner) error {
	p := r.p
	srv, cs, err := r.setup(func(_ *server, cs [2]*conn) error { return r.createSessions(cs[0], p.watchSessions) })
	if err != nil {
		return err
	}
	defer r.teardown(srv, cs)

	type frame struct {
		arrived time.Time
		id      uint64
		tasks   int64
	}
	var (
		mu     sync.Mutex
		frames []frame
		notify = make(chan struct{}, 1)
		sseErr = make(chan error, 1)
	)
	body, err := cs[1].stream("/v1/sessions/" + r.sessionID(0) + "/watch")
	if err != nil {
		return err
	}
	go func() {
		sseErr <- func() error {
			return readSSE(body, func(f sseFrame) {
				var d struct {
					Tasks int64 `json:"tasks"`
				}
				if err := json.Unmarshal(f.data, &d); err != nil {
					d.Tasks = -1
				}
				mu.Lock()
				frames = append(frames, frame{f.arrived, f.id, d.Tasks})
				mu.Unlock()
				select {
				case notify <- struct{}{}:
				default:
				}
			})
		}()
	}()

	start := time.Now()
	mStart, mEnd := start.Add(p.warmup), start.Add(p.warmup+p.measure)
	r.res.window = [2]time.Time{mStart, mEnd}
	var a snap
	writes := newConnLog(0)
	r.res.logs = []*connLog{writes}
	bySession0Task, lastAck := r.openWrites(srv, cs[0], writes, start, mStart, mEnd, &a)
	b := r.snapshot(srv, cs[0])

	// Quiesce: the stream must deliver session 0's final task count.
	final := int64(writes.acked[0] / p.taskVotes)
	deadline := time.After(p.quiesce)
	ended := false
	for done := false; !done; {
		mu.Lock()
		done = len(frames) > 0 && frames[len(frames)-1].tasks == final
		mu.Unlock()
		if done {
			break
		}
		select {
		case <-notify:
		case <-deadline:
			r.fail("watch stream never delivered task %d within %s of quiesce", final, p.quiesce)
			done = true
		case err := <-sseErr:
			r.fail("watch stream ended early: %v", err)
			done, ended = true, true
		}
	}
	cs[1].shutdown()
	if !ended {
		<-sseErr // the reader returns once the cancelled stream's read fails
	}
	body.Close()

	mu.Lock()
	var stale samples
	for i, f := range frames {
		if i > 0 && f.id <= frames[i-1].id {
			r.fail("watch ids not strictly increasing: %d after %d", f.id, frames[i-1].id)
		}
		if f.tasks < 0 {
			r.fail("watch frame %d: undecodable data", f.id)
		}
		w, ok := bySession0Task[f.tasks]
		if !ok {
			continue
		}
		r.tr.add("serve.watch_frame", w.op, w.due, f.arrived)
		if !f.arrived.Before(mStart) && f.arrived.Before(mEnd) {
			stale.addDur(f.arrived.Sub(w.due))
		}
	}
	r.attempt(len(frames))
	mu.Unlock()
	r.setPct("ingest_p50_ms", writes.lat[opVotesJSON], 50)
	r.setPct("ingest_p90_ms", writes.lat[opVotesJSON], 90)
	r.setPct("watch_staleness_p50_ms", stale, 50)
	r.setPct("watch_staleness_p90_ms", stale, 90)

	d := b.metrics.delta(a.metrics)
	r.set("hub.encodes_per_publish", d.ratio("dqm_hub_encodes_total", "dqm_hub_publishes_total"), int(d["dqm_hub_publishes_total"]))
	ev, dropped := d["dqm_hub_events_total"], d["dqm_hub_dropped_total"]
	r.set("hub.skip_ratio", ratioOrNaN(dropped, ev+dropped), int(ev+dropped))
	r.set("hub.fanout.mean_ms", 1e3*d.histMean("dqm_hub_fanout_seconds"), int(d["dqm_hub_fanout_seconds_count"]))
	r.awaitGates(cs[0], lastAck)
	r.finishWrites(srv, cs[0], a, b)
	r.set("server_rss_mb", r.rss(srv), 1)
	r.policyLayer(r.snapshot(srv, cs[0]).metrics)
	return nil
}

// runRestart: set-up bulk-loads restartSessions sessions under -fsync
// always; then every cycle SIGKILLs the server, restarts it on the same data
// dir and reads every session once over two connections. Each read must
// equal the estimates from before the kill. The measured phase is a fixed
// number of cycles, not a time: a cycle is one sample of the metric.
func runRestart(r *runner) error {
	p := r.p
	var a, b snap
	srv, cs, err := r.setup(func(srv *server, cs [2]*conn) error {
		if err := r.createSessions(cs[0], p.restartSessions); err != nil {
			return err
		}
		r.res.logs = []*connLog{newConnLog(0), newConnLog(1)}
		a = r.snapshot(srv, cs[0])
		var wg sync.WaitGroup
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(l *connLog) {
				defer wg.Done()
				st := newStream(r.seed, r.name, l.conn, p)
				var buf []byte
				for i := 0; i < len(st.spec.sessions); i++ {
					t0 := time.Now()
					o := st.next()
					if _, ack, ok := r.write(cs[l.conn], l, i, o, t0, &buf); ok {
						l.lat[o.kind].addDur(ack.Sub(t0))
					}
				}
			}(r.res.logs[k])
		}
		wg.Wait()
		b = r.snapshot(srv, cs[0])
		return nil
	})
	if err != nil {
		return err
	}
	defer func() { r.teardown(srv, cs) }()
	r.writePhase(a, b)
	r.fetchFinal(cs[0])
	r.disk(srv)
	r.res.durableDir = srv.dir

	var cycles, boots, recov samples
	var rss []float64
	reads := [2]*connLog{newConnLog(2), newConnLog(3)}
	r.res.logs = append(r.res.logs, reads[:]...)
	for cycle := 0; cycle < p.restartWarmCycles+p.restartCycles; cycle++ {
		r.teardown(srv, cs)
		if srv, err = spawn(r.bin, srv.addr, srv.dir, r.serverFlags()); err != nil {
			return err
		}
		id := opID(4, cycle)
		boot, h, err := srv.waitReady(cs[0], time.Minute, r.tr, id)
		if err != nil {
			return err
		}
		done := [2][]time.Duration{}
		var wg sync.WaitGroup
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(k int, l *connLog) {
				defer wg.Done()
				for s := k; s < p.restartSessions; s += 2 {
					l.sent++
					t0 := time.Now()
					var d estDoc
					err := getJSON(cs[k], "/v1/sessions/"+r.sessionID(s)+"/estimates", &d)
					t1 := time.Now()
					r.tr.add("serve.estimates", id, t0, t1)
					switch {
					case err != nil:
						r.fail("restart cycle %d: estimates %s: %v", cycle, r.sessionID(s), err)
					case d != r.res.final[s]:
						r.fail("restart cycle %d: %s estimates differ from before the kill", cycle, r.sessionID(s))
					}
					done[k] = append(done[k], t1.Sub(srv.spawned))
					if cycle >= p.restartWarmCycles {
						l.lat[opEstimates].addDur(t1.Sub(t0))
					}
				}
			}(k, reads[k])
		}
		wg.Wait()
		last := slices.Max(append(done[0], done[1]...))
		r.tr.addID(id, "op.restart_cycle", 0, srv.spawned, srv.spawned.Add(last))
		if cycle < p.restartWarmCycles {
			continue
		}
		rss = append(rss, r.rss(srv))
		cycles.addDur(last)
		boots.addDur(boot)
		recov = append(recov, 1e3*h.RecoverySeconds)
	}
	end := r.snapshot(srv, cs[0])
	r.set("serve.handler.estimates.mean_ms", 1e3*end.metrics.histMean("dqm_http_request_seconds", `route="estimates"`),
		int(end.metrics[key("dqm_http_request_seconds_count", `route="estimates"`)]))
	r.setPct("restart_p50_ms", cycles, 50)
	r.set("server_rss_mb", median(rss), len(rss))
	r.set("serve.boot_ready_ms", median(boots), len(boots))
	r.set("engine.recovery_ms", median(recov), len(recov))
	return nil
}
