package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dqm"
)

// The in-process replays regenerate each connection's acknowledged op
// prefix from the seed (op streams are pure functions of it) and apply it
// through the exported dqm API. The untraced pass replays the writes into an
// in-memory engine to check the server's final estimates; the traced pass
// replays every op, unpaced on one goroutine, against a durable engine with
// the server's fsync policy and an in-memory one, with a span per exported
// call, so the layer report can set HTTP cost beside in-process cost.

// replay applies the HTTP run's ops to fresh sessions of eng in the order
// they were sent. Reads run only when traced; failed ops are skipped, as are
// gate reads, whose evaluator lives in dqm-serve. Span names get suffix.
func (r *runner) replay(eng *dqm.Engine, tr *tracer, suffix string) (map[int]*dqm.Session, error) {
	cfg := r.sessionConfig()
	sessions := make(map[int]*dqm.Session, r.res.sessions)
	for i := 0; i < r.res.sessions; i++ {
		s, err := eng.CreateSession(r.sessionID(i), r.p.items, cfg)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	type cursor struct {
		l  *connLog
		st *stream
		i  int
	}
	var curs []*cursor
	for _, l := range r.res.logs {
		if l.conn < streamConns(r.name) {
			curs = append(curs, &cursor{l: l, st: newStream(r.seed, r.name, l.conn, r.p)})
		}
	}
	var buf []byte
	for {
		var c *cursor
		for _, x := range curs {
			if x.i < x.l.sent && (c == nil || x.l.start[x.i].Before(c.l.start[c.i])) {
				c = x
			}
		}
		if c == nil {
			return sessions, nil
		}
		o, i := c.st.next(), c.i
		c.i++
		if c.l.failed[i] || (tr == nil && o.kind > opVotesDQMV) || o.kind == opGate {
			continue
		}
		sess := sessions[o.session]
		if o.kind == opVotesDQMV {
			buf = appendDQMV(buf[:0], o.votes, r.p.taskVotes)
		}
		var name string
		var err error
		t0 := time.Now()
		switch o.kind {
		case opVotesJSON:
			name, err = "engine.append_votes", sess.AppendVotes(o.votes, true)
		case opVotesDQMV:
			name = "engine.append_dqmv"
			_, _, err = sess.AppendDQMV(buf)
		case opEstimates:
			name = "engine.estimates"
			sess.Estimates()
		case opEstimatesWindow:
			name = "window.estimates"
			_, err = sess.WindowEstimates(dqm.WindowCurrent)
		case opEstimatesCI:
			name = "estimator.switch_ci"
			_, err = sess.SwitchCI(r.p.ciReplicates, 0.95)
		}
		tr.add(name+suffix, opID(c.l.conn, i), t0, time.Now())
		if err != nil {
			return nil, fmt.Errorf("replay %s op %d of conn %d: %w", o.kind, i, c.l.conn, err)
		}
	}
}

// streamConns is the number of generated op streams of a workload; other
// connection logs (restart's cycle reads) are not streams.
func streamConns(workload string) int {
	if workload == "watch" {
		return 1
	}
	return 2
}

// checkFinal compares replayed sessions with the server's final estimates.
func (r *runner) checkFinal(sessions map[int]*dqm.Session, what string) {
	for i := 0; i < r.res.sessions; i++ {
		if got := docOf(sessions[i]); got != r.res.final[i] {
			r.fail("%s: session %s estimates %+v, server reported %+v", what, r.sessionID(i), got, r.res.final[i])
		}
	}
}

// checkReplay is the untraced correctness replay.
func (r *runner) checkReplay() {
	eng := dqm.NewEngine(dqm.EngineConfig{})
	sessions, err := r.replay(eng, nil, "")
	if err != nil {
		r.fail("in-process replay: %v", err)
		return
	}
	r.checkFinal(sessions, "in-process replay")
}

func (r *runner) fsyncPolicy() dqm.FsyncPolicy {
	flags := r.serverFlags()
	i := slices.Index(flags, "-fsync")
	if i >= 0 && i+1 < len(flags) && flags[i+1] == "always" {
		return dqm.FsyncAlways
	}
	return dqm.FsyncBatch
}

// tracedReplays runs the durable and in-memory replays with spans, then
// reopens durable state: the replayed data dir, or for restart a copy of
// the server's own data dir. Opening it is timed as engine.open_engine.
func (r *runner) tracedReplays() error {
	cfg := dqm.EngineConfig{Fsync: r.fsyncPolicy()}
	dir := filepath.Join(r.work, r.name+"-replay")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	eng, err := dqm.OpenEngine(dir, cfg)
	if err != nil {
		return err
	}
	sessions, err := r.replay(eng, r.tr, "")
	if err != nil {
		eng.Close()
		return err
	}
	r.checkFinal(sessions, "durable replay")
	if err := eng.Close(); err != nil {
		return err
	}
	if r.name == "restart" {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := copyDir(r.res.durableDir, dir); err != nil {
			return err
		}
	}
	t0 := time.Now()
	eng, err = dqm.OpenEngine(dir, cfg)
	t1 := time.Now()
	if err != nil {
		return err
	}
	r.tr.add("engine.open_engine", 0, t0, t1)
	r.set("engine.replay_votes_per_s", float64(r.ackedVotes())/t1.Sub(t0).Seconds(), 1)
	reopened := make(map[int]*dqm.Session, r.res.sessions)
	for i := 0; i < r.res.sessions; i++ {
		s, ok := eng.Session(r.sessionID(i))
		if !ok {
			eng.Close()
			return fmt.Errorf("session %s missing after reopen", r.sessionID(i))
		}
		t0 := time.Now()
		s.Estimates()
		if r.name == "restart" {
			// The restart workload's own op: the first read after recovery.
			r.tr.add("engine.estimates", 0, t0, time.Now())
		}
		reopened[i] = s
	}
	r.checkFinal(reopened, "reopened durable replay")
	if err := eng.Close(); err != nil {
		return err
	}
	mem, err := r.replay(dqm.NewEngine(dqm.EngineConfig{}), r.tr, "@mem")
	if err != nil {
		return err
	}
	r.checkFinal(mem, "in-memory replay")
	return nil
}
