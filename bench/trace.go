package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval. Parent is the id of the workload op it belongs
// to (0 for none). Start and End are nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opID names op i of connection conn; the same op keeps its id in the HTTP
// run and in the in-process replays, so their spans share a parent. Other
// span ids count up from 1 and stay below 1<<40.
func opID(conn, i int) uint64 { return uint64(conn+1)<<40 | uint64(i) }

// add records a span and returns its id. With id 0 a fresh id is drawn.
func (t *tracer) add(name string, parent uint64, start, end time.Time) uint64 {
	return t.addID(0, name, parent, start, end)
}

func (t *tracer) addID(id uint64, name string, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals (children
// clipped to the parent, overlapping children counted once).
func selfTimes(spans []span) map[uint64]int64 {
	byID := make(map[uint64]span, len(spans))
	children := make(map[uint64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for id, s := range byID {
		kids := children[id]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered := int64(0)
		cur, curEnd := int64(0), int64(-1) // current merged interval [cur, curEnd)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[id] = s.dur() - covered
	}
	return self
}

// spanStat summarises one span name.
type spanStat struct {
	n          int
	p50, mean  float64 // milliseconds
	selfMean   float64 // milliseconds
	durSamples []float64
}

// spanStats groups spans by name; keep filters them (nil keeps all).
func spanStats(spans []span, keep func(span) bool) map[string]*spanStat {
	self := selfTimes(spans)
	out := map[string]*spanStat{}
	selfSum := map[string]float64{}
	for _, s := range spans {
		if keep != nil && !keep(s) {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.durSamples = append(st.durSamples, float64(s.dur())/1e6)
		selfSum[s.Name] += float64(self[s.ID]) / 1e6
	}
	for name, st := range out {
		st.n = len(st.durSamples)
		st.p50 = percentile(samples(st.durSamples).sorted(), 50)
		st.mean = mean(st.durSamples)
		st.selfMean = selfSum[name] / float64(st.n)
	}
	return out
}
