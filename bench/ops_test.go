package main

import (
	"reflect"
	"testing"
	"time"

	"dqm"
)

// take draws n ops, copying the votes the stream reuses.
func take(s *stream, n int) []op {
	out := make([]op, n)
	for i := range out {
		o := s.next()
		o.votes = append([]dqm.Vote(nil), o.votes...)
		out[i] = o
	}
	return out
}

func TestStreamsArePureFunctionsOfSeedWorkloadConn(t *testing.T) {
	p := defaultParams(10 * time.Second)
	for _, w := range []string{"ingest", "monitor", "watch", "restart"} {
		for conn := 0; conn < streamConns(w); conn++ {
			n := 500
			if w == "restart" {
				n = p.restartSessions / 2
			}
			a := take(newStream(1, w, conn, &p), n)
			b := take(newStream(1, w, conn, &p), n)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s conn %d: same seed, different streams", w, conn)
			}
			c := take(newStream(7, w, conn, &p), n)
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s conn %d: seeds 1 and 7 gave the same stream", w, conn)
			}
		}
	}
	// Connections of one workload draw independent streams.
	a := take(newStream(1, "ingest", 0, &p), 50)
	b := take(newStream(1, "ingest", 1, &p), 50)
	if reflect.DeepEqual(a[0].votes, b[0].votes) {
		t.Error("ingest conns 0 and 1 drew the same votes")
	}
}

func TestStreamTrafficShape(t *testing.T) {
	p := defaultParams(10 * time.Second)
	count := func(w string, conn, n int) (map[opKind]int, map[int]int) {
		kinds, sessions := map[opKind]int{}, map[int]int{}
		s := newStream(3, w, conn, &p)
		for i := 0; i < n; i++ {
			o := s.next()
			kinds[o.kind]++
			sessions[o.session]++
			if o.kind <= opVotesDQMV && len(o.votes) != p.taskVotes*s.spec.tasksPerOp {
				t.Fatalf("%s conn %d: write of %d votes", w, conn, len(o.votes))
			}
		}
		return kinds, sessions
	}
	kinds, sessions := count("ingest", 1, 1000)
	if kinds[opVotesDQMV] != 1000 || len(sessions) != 4 || sessions[0] != 0 {
		t.Errorf("ingest conn 1: kinds %v sessions %v, want DQMV only to sessions 4-7", kinds, sessions)
	}
	const n = 20000
	kinds, _ = count("monitor", 1, n)
	for k, want := range map[opKind]float64{opEstimates: 0.56, opEstimatesWindow: 0.20, opEstimatesCI: 0.04, opGate: 0.20} {
		if got := float64(kinds[k]) / n; got < want-0.015 || got > want+0.015 {
			t.Errorf("monitor reads: %s share %.3f, want %.2f", k, got, want)
		}
	}
	_, sessions = count("watch", 0, n)
	if got := float64(sessions[0]) / n; got < 0.38 || got > 0.42 {
		t.Errorf("watch: session 0 share %.3f, want 0.40", got)
	}
	_, sessions = count("restart", 0, p.restartSessions/2)
	if len(sessions) != p.restartSessions/2 || sessions[0] != 1 || sessions[1] != 0 {
		t.Errorf("restart conn 0 uploads %d sessions, want each even session once", len(sessions))
	}
}

func TestDirtyRateJumpsMidRun(t *testing.T) {
	p := defaultParams(10 * time.Second)
	s := newStream(5, "monitor", 0, &p)
	jump := s.spec.jump[0]
	if want := int(p.writeRate / 8 * (p.warmup + p.measure/2).Seconds()); jump != want {
		t.Fatalf("jump at task %d, want %d", jump, want)
	}
	var before, after, nb, na int
	for s.tasks[0] < 2*jump {
		o := s.next()
		if o.session != 0 {
			continue
		}
		for _, v := range o.votes {
			if s.tasks[0] <= jump {
				nb++
				if v.Dirty {
					before++
				}
			} else {
				na++
				if v.Dirty {
					after++
				}
			}
		}
	}
	if rb, ra := float64(before)/float64(nb), float64(after)/float64(na); rb > 0.07 || ra < 0.27 {
		t.Errorf("dirty rate %.3f before the jump, %.3f after; want ~0.05 and ~0.30", rb, ra)
	}
}

// The benchmark's DQMV writer must produce bodies the dqm parser reads as
// the same votes and task boundaries as the JSON path.
func TestDQMVEncoderMatchesJSONPath(t *testing.T) {
	p := defaultParams(time.Second)
	p.restartTasks = 7
	s := newStream(2, "restart", 0, &p)
	o := s.next()
	eng := dqm.NewEngine(dqm.EngineConfig{})
	bin, _ := eng.CreateSession("bin", p.items, dqm.Defaults())
	js, _ := eng.CreateSession("json", p.items, dqm.Defaults())
	n, tasks, err := bin.AppendDQMV(appendDQMV(nil, o.votes, p.taskVotes))
	if err != nil || n != len(o.votes) || tasks != p.restartTasks {
		t.Fatalf("AppendDQMV: %d votes, %d tasks, %v; want %d, %d", n, tasks, err, len(o.votes), p.restartTasks)
	}
	for i := 0; i < len(o.votes); i += p.taskVotes {
		if err := js.AppendVotes(o.votes[i:i+p.taskVotes], true); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := docOf(bin), docOf(js); a != b {
		t.Errorf("DQMV estimates %+v, JSON estimates %+v", a, b)
	}
}
