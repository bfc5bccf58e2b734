package main

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"dqm"
)

// opKind is one request type of a workload's op stream.
type opKind uint8

const (
	opVotesJSON opKind = iota
	opVotesDQMV
	opEstimates       // GET estimates with If-None-Match: the last ETag seen
	opEstimatesWindow // GET estimates?window=current
	opEstimatesCI     // GET estimates?ci=0.95&replicates=N
	opGate            // GET gate
	numOpKinds
)

var opNames = [numOpKinds]string{"votes_json", "votes_dqmv", "estimates", "estimates_window", "estimates_ci", "gate"}

func (k opKind) String() string { return opNames[k] }

// op is one generated request. votes is only valid until the stream's next
// call: the stream reuses its buffer.
type op struct {
	kind    opKind
	session int
	votes   []dqm.Vote // write ops: whole tasks of params.taskVotes votes
}

// params sizes every workload. paramsFor is the benchmark; the smoke test
// shrinks it.
type params struct {
	warmup, measure time.Duration
	// setups is how many times each run repeats its set-up; setup_s is the
	// median and the last set-up's server is the one measured.
	setups int

	items, taskVotes, workers int
	dirty, driftDirty         float64

	ingestSessions, monitorSessions, watchSessions int
	// rssVotes is the acknowledged vote count at which ingest reads the
	// server's peak RSS. A host too slow to reach it in the warm-up and
	// measured phases keeps writing, untimed, for up to rssGrace more.
	rssVotes int
	rssGrace time.Duration
	// writeRate and readRate are the open-loop rates (ops per second) of the
	// monitor and watch connections; readDelay starts the dashboard reads
	// after the first tasks exist, so no read meets an empty session.
	writeRate, readRate float64
	readDelay           time.Duration
	ciReplicates        int

	restartSessions, restartTasks    int
	restartWarmCycles, restartCycles int
	// quiesce bounds the wait for pushes and gates to catch up after the
	// last write; missing it is a failed check.
	quiesce time.Duration
}

// paramsFor is defaultParams with the workload's warm-up, set-up count and
// restart cycles from spec.json.
func paramsFor(workload string, measure time.Duration) params {
	p := defaultParams(measure)
	if ws, ok := workloadSpec(workload); ok {
		p.warmup = time.Duration(ws.WarmupS * float64(time.Second))
		p.setups = ws.Setups
		p.restartWarmCycles, p.restartCycles = ws.WarmupCycles, ws.Cycles
	}
	return p
}

func defaultParams(measure time.Duration) params {
	return params{
		measure:         measure,
		items:           5000,
		taskVotes:       20,
		workers:         25,
		dirty:           0.05,
		driftDirty:      0.30,
		ingestSessions:  8,
		rssVotes:        1_500_000,
		rssGrace:        60 * time.Second,
		monitorSessions: 8,
		watchSessions:   4,
		writeRate:       1000,
		readRate:        250,
		readDelay:       200 * time.Millisecond,
		ciReplicates:    200,
		restartSessions: 256,
		restartTasks:    150,
		quiesce:         2 * time.Second,
	}
}

// streamSpec fixes what one connection of one workload sends.
type streamSpec struct {
	// kinds holds the cumulative probability of each op kind; a write-only
	// stream has one entry.
	kinds []float64
	// sessions and share list the sessions the stream picks from and the
	// probability of each. With seq set, op i goes to sessions[i] instead.
	sessions []int
	share    []float64
	seq      bool
	// tasksPerOp is the number of tasks in each write op.
	tasksPerOp int
	// jump, when non-nil, holds per session the task index from which the
	// dirty-vote rate is driftDirty instead of dirty.
	jump map[int]int
}

// specFor is the table of the benchmark's traffic: which connection sends
// what, to which sessions.
func specFor(workload string, conn int, p *params) streamSpec {
	writes := []float64{1}
	uniform := func(lo, hi int) ([]int, []float64) {
		var ids []int
		var sh []float64
		for i := lo; i < hi; i++ {
			ids = append(ids, i)
			sh = append(sh, 1/float64(hi-lo))
		}
		return ids, sh
	}
	// drift puts the jump of the dirty rate in the middle of the measured
	// phase: a session taking share of rate tasks per second crosses it
	// after rate*share*(warmup + measure/2) tasks.
	drift := func(ids []int, sh []float64) map[int]int {
		mid := (p.warmup + p.measure/2).Seconds()
		m := make(map[int]int, len(ids))
		for i, id := range ids {
			m[id] = int(math.Round(p.writeRate * sh[i] * mid))
		}
		return m
	}
	var s streamSpec
	switch workload {
	case "ingest":
		half := p.ingestSessions / 2
		if conn == 0 {
			s.kinds = writes
			s.sessions, s.share = uniform(0, half)
		} else {
			s.kinds = []float64{0, 1}
			s.sessions, s.share = uniform(half, p.ingestSessions)
		}
	case "monitor":
		s.sessions, s.share = uniform(0, p.monitorSessions)
		if conn == 0 {
			s.kinds = writes
			s.jump = drift(s.sessions, s.share)
		} else {
			// 56% conditional estimates, 20% current window, 4% bootstrap
			// CI, 20% gate.
			s.kinds = []float64{0, 0, 0.56, 0.76, 0.80, 1}
		}
	case "watch":
		s.kinds = writes
		s.sessions = []int{0}
		s.share = []float64{0.4}
		for i := 1; i < p.watchSessions; i++ {
			s.sessions = append(s.sessions, i)
			s.share = append(s.share, 0.6/float64(p.watchSessions-1))
		}
		s.jump = drift(s.sessions, s.share)
	case "restart":
		s.kinds = []float64{0, 1}
		s.seq = true
		for i := conn; i < p.restartSessions; i += 2 {
			s.sessions = append(s.sessions, i)
		}
		s.tasksPerOp = p.restartTasks
	}
	if s.tasksPerOp == 0 {
		s.tasksPerOp = 1
	}
	return s
}

// stream generates one connection's op sequence. It is a pure function of
// (seed, workload, connection) and the params, so the benchmark can
// regenerate any acknowledged prefix for the in-process replays instead of
// keeping it.
type stream struct {
	spec  streamSpec
	p     *params
	rng   *rand.Rand
	i     int
	tasks map[int]int // tasks generated so far, per session
	votes []dqm.Vote
	cum   []float64 // cumulative session shares
}

func newStream(seed uint64, workload string, conn int, p *params) *stream {
	h := fnv.New64a()
	h.Write([]byte(workload))
	h.Write([]byte{byte(conn)})
	s := &stream{
		spec:  specFor(workload, conn, p),
		p:     p,
		rng:   rand.New(rand.NewPCG(seed, h.Sum64())),
		tasks: make(map[int]int),
	}
	acc := 0.0
	for _, sh := range s.spec.share {
		acc += sh
		s.cum = append(s.cum, acc)
	}
	return s
}

// pick returns the first index whose cumulative probability exceeds u.
func pick(cum []float64, u float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

func (s *stream) next() op {
	var o op
	if s.spec.seq {
		o.session = s.spec.sessions[s.i%len(s.spec.sessions)]
	} else {
		o.session = s.spec.sessions[pick(s.cum, s.rng.Float64()*s.cum[len(s.cum)-1])]
	}
	o.kind = opKind(pick(s.spec.kinds, s.rng.Float64()))
	s.i++
	if o.kind <= opVotesDQMV {
		o.votes = s.genTasks(o.session, s.spec.tasksPerOp)
	}
	return o
}

// genTasks draws n tasks for a session. A task is one crowd worker judging
// taskVotes items drawn uniformly from the population; each vote is dirty
// with the session's current dirty rate.
func (s *stream) genTasks(session, n int) []dqm.Vote {
	s.votes = s.votes[:0]
	for t := 0; t < n; t++ {
		rate := s.p.dirty
		if j, ok := s.spec.jump[session]; ok && s.tasks[session] >= j {
			rate = s.p.driftDirty
		}
		worker := s.rng.IntN(s.p.workers)
		for v := 0; v < s.p.taskVotes; v++ {
			s.votes = append(s.votes, dqm.Vote{
				Item:   s.rng.IntN(s.p.items),
				Worker: worker,
				Dirty:  s.rng.Float64() < rate,
			})
		}
		s.tasks[session]++
	}
	return s.votes
}
