// Package window implements windowed estimation over a session's task
// stream: instead of (or alongside) the all-time estimate, a session can
// report "the quality of the last N tasks" — the continuous-monitoring shape
// where the vote stream never ends and old cleaning passes stop being
// representative of the current error rate.
//
// The core structure is a ring of per-window estimator suites. A window
// covers a fixed number of completed tasks (Size); successive windows start
// every Stride tasks, so Stride == Size yields tumbling windows and
// Stride < Size sliding windows built from ceil(Size/Stride) staggered panes.
// Every vote feeds every open pane; when a pane has seen Size task
// boundaries its estimates are sealed as the latest completed window, folded
// into an optional exponentially decayed aggregate, and the pane is recycled
// for the next window start. All transitions happen at task boundaries and
// depend only on the task count, so a replayed vote stream reproduces every
// window boundary exactly — the property the WAL's window-rotation records
// verify during crash recovery.
package window

import (
	"fmt"

	"dqm/internal/estimator"
	"dqm/internal/votes"
)

// maxPanes bounds ceil(Size/Stride): every vote is ingested into every open
// pane, so the pane count is a direct ingest-cost multiplier (and each pane
// holds an O(N) suite).
const maxPanes = 64

// MaxItemStates bounds the per-item estimator state a session may allocate:
// its population times its suites (the all-time suite plus one per pane).
// A suite holds 4 B per item when created (8 B once one of its items passes
// 255 votes, 16 B past 65,535), so the bound is 256 MiB at create.
const MaxItemStates = 1 << 26

// Config parameterizes windowed estimation. The zero value is invalid; Size
// is required.
type Config struct {
	// Size is the window length in completed tasks (> 0).
	Size int `json:"size"`
	// Stride is the task offset between successive window starts. 0 selects
	// Size (tumbling windows); values below Size slide. Must not exceed Size
	// (gaps would leave tasks uncovered).
	Stride int `json:"stride,omitempty"`
	// DecayAlpha in (0, 1] is the weight of the newest completed window in
	// the exponentially decayed aggregate (see KindDecayed); 0 disables it.
	DecayAlpha float64 `json:"decay_alpha,omitempty"`
}

// normalize fills the Stride default.
func (c Config) normalize() Config {
	if c.Stride == 0 {
		c.Stride = c.Size
	}
	return c
}

// Panes returns the number of concurrently open window suites the
// configuration requires.
func (c Config) Panes() int {
	c = c.normalize()
	return (c.Size + c.Stride - 1) / c.Stride
}

// Validate rejects configurations that are malformed or too expensive to
// serve. API layers call it before building sessions; New panics on invalid
// input (a programmer error by then).
func (c Config) Validate() error {
	if c.Size <= 0 {
		return fmt.Errorf("window: size %d must be positive", c.Size)
	}
	if c.Stride < 0 {
		return fmt.Errorf("window: stride %d must not be negative", c.Stride)
	}
	if c.Stride > c.Size {
		return fmt.Errorf("window: stride %d exceeds size %d (tasks would go unwindowed)", c.Stride, c.Size)
	}
	if c.DecayAlpha < 0 || c.DecayAlpha > 1 {
		return fmt.Errorf("window: decay alpha %v outside [0, 1]", c.DecayAlpha)
	}
	if p := c.Panes(); p > maxPanes {
		return fmt.Errorf("window: size %d / stride %d needs %d concurrent panes (limit %d); raise the stride",
			c.Size, c.normalize().Stride, p, maxPanes)
	}
	return nil
}

// Kind selects which windowed view a read returns.
type Kind int

const (
	// KindCurrent is the oldest still-open window: the estimate over the most
	// recent up-to-Size completed tasks (fewer while the stream warms up or
	// right after a rotation). It moves with every vote.
	KindCurrent Kind = iota
	// KindLast is the most recently completed full window. It is stable
	// between rotations — the natural unit for dashboards and alerting.
	KindLast
	// KindDecayed is the exponentially decayed aggregate over completed
	// windows: decayed = α·window + (1−α)·decayed, folded at every rotation.
	// Scalar estimates (and Extra members) are averaged; the Switch trend
	// reports the latest window's direction.
	KindDecayed
)

// String implements fmt.Stringer; the values double as the HTTP ?window=
// parameter.
func (k Kind) String() string {
	switch k {
	case KindCurrent:
		return "current"
	case KindLast:
		return "last"
	case KindDecayed:
		return "decayed"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind inverts Kind.String, for API layers.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "current":
		return KindCurrent, nil
	case "last":
		return KindLast, nil
	case "decayed":
		return KindDecayed, nil
	default:
		return 0, fmt.Errorf("window: unknown window kind %q (want current, last or decayed)", s)
	}
}

// Result is one windowed estimate read.
type Result struct {
	// Estimates is the estimator snapshot over the window's tasks (for
	// KindDecayed, the decayed aggregate — see the Kind docs).
	Estimates estimator.Estimates
	// Kind reports which view produced the result.
	Kind Kind
	// Start and End delimit the covered task interval [Start, End) in
	// completed-task indices. For KindDecayed they are the bounds of the
	// newest folded window.
	Start, End int64
	// Tasks is the number of completed tasks the estimates actually cover
	// (End − Start; less than Size only for a partial KindCurrent window).
	Tasks int64
	// Complete reports a full Size-task window.
	Complete bool
}

// Rotation describes one window completion: the window covering
// [Start, Start+Size) sealed at a task boundary.
type Rotation struct {
	// Start is the first completed-task index of the sealed window.
	Start int64
}

// pane is one open (or recyclable) window suite.
type pane struct {
	suite *estimator.Suite
	start int64 // completed-task index of the window start; -1 when closed
	tasks int   // task boundaries seen by this window so far
}

// Ring is the windowed-estimation state of one session: the open panes, the
// last completed window and the decayed aggregate. It is not safe for
// concurrent use; the session engine serializes access under the session
// mutex, exactly like the all-time suite.
type Ring struct {
	cfg   Config
	n     int
	panes []*pane
	tasks int64 // completed tasks observed overall

	last      estimator.Estimates
	lastStart int64
	haveLast  bool

	decayed    estimator.Estimates
	decayStart int64
	haveDecay  bool
}

// New builds a ring over a population of n items, with every pane running the
// given estimator selection. Panes keep no switch ledgers: bootstrap
// intervals are served over the all-time suite only. It panics on an invalid
// config (validate user-supplied configs with Config.Validate first) and on
// unregistered estimator names (NewSuite's contract).
func New(n int, suiteCfg estimator.SuiteConfig, cfg Config) *Ring {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("window: New: %v", err))
	}
	cfg = cfg.normalize()
	suiteCfg.Switch.RetainLedgers = false
	r := &Ring{cfg: cfg, n: n, panes: make([]*pane, cfg.Panes())}
	for i := range r.panes {
		r.panes[i] = &pane{suite: estimator.NewSuite(n, suiteCfg), start: -1}
	}
	r.panes[0].start = 0 // the first window opens with the stream
	return r
}

// Config returns the (normalized) window configuration.
func (r *Ring) Config() Config { return r.cfg }

// Tasks returns the number of completed tasks observed.
func (r *Ring) Tasks() int64 { return r.tasks }

// Observe ingests one vote into every open pane.
func (r *Ring) Observe(v votes.Vote) {
	for _, p := range r.panes {
		if p.start >= 0 {
			p.suite.Observe(v)
		}
	}
}

// RotationAt reports the rotation fired by the task boundary that brings a
// stream to tasks completed tasks. Windows open every Stride tasks and seal
// Size tasks later, so that boundary seals the window starting at tasks−Size
// exactly when tasks ≥ Size and (tasks−Size) % Stride == 0. The session engine
// uses it to write-ahead-journal each rotation in the same frame as the
// boundary that fires it, for boundaries it has not applied yet.
func (c Config) RotationAt(tasks int64) (Rotation, bool) {
	c = c.normalize()
	start := tasks - int64(c.Size)
	if start < 0 || start%int64(c.Stride) != 0 {
		return Rotation{}, false
	}
	return Rotation{Start: start}, true
}

// EndTask marks a task boundary: every open pane advances, a pane reaching
// Size tasks seals its window (becoming the last completed window and
// folding into the decayed aggregate) and is recycled, and a new window
// opens at every Stride-th boundary. It returns the rotation that fired, if
// any (at most one per boundary — window starts are distinct, so their ends
// are too).
func (r *Ring) EndTask() (Rotation, bool) {
	var rot Rotation
	fired := false
	for _, p := range r.panes {
		if p.start < 0 {
			continue
		}
		p.suite.EndTask()
		p.tasks++
		if p.tasks < r.cfg.Size {
			continue
		}
		// Window [p.start, p.start+Size) is complete: seal it.
		e := p.suite.EstimateAll()
		r.last, r.lastStart, r.haveLast = e, p.start, true
		r.foldDecay(e)
		rot, fired = Rotation{Start: p.start}, true
		p.suite.Reset()
		p.start, p.tasks = -1, 0
	}
	r.tasks++
	if r.tasks%int64(r.cfg.Stride) == 0 {
		p := r.freePane()
		p.start = r.tasks
	}
	return rot, fired
}

// freePane returns a closed pane for reuse. One always exists by
// construction: at most Panes() windows are ever open, and a completing pane
// closes before the boundary that would open the next window.
func (r *Ring) freePane() *pane {
	for _, p := range r.panes {
		if p.start < 0 {
			return p
		}
	}
	panic("window: no free pane (ring invariant broken)")
}

// current returns the oldest open pane — the one covering the longest recent
// span. After the first boundary of the stream at least one pane is always
// open.
func (r *Ring) current() *pane {
	var oldest *pane
	for _, p := range r.panes {
		if p.start < 0 {
			continue
		}
		if oldest == nil || p.start < oldest.start {
			oldest = p
		}
	}
	return oldest
}

// foldDecay merges one sealed window into the decayed aggregate.
func (r *Ring) foldDecay(e estimator.Estimates) {
	a := r.cfg.DecayAlpha
	if a == 0 {
		return
	}
	r.decayStart = r.lastStart
	if !r.haveDecay {
		r.decayed = e.Clone()
		r.haveDecay = true
		return
	}
	d := &r.decayed
	mix := func(acc, cur float64) float64 { return a*cur + (1-a)*acc }
	d.Nominal = mix(d.Nominal, e.Nominal)
	d.Voting = mix(d.Voting, e.Voting)
	d.Chao92 = mix(d.Chao92, e.Chao92)
	d.VChao92 = mix(d.VChao92, e.VChao92)
	d.Switch.Total = mix(d.Switch.Total, e.Switch.Total)
	d.Switch.Majority = mix(d.Switch.Majority, e.Switch.Majority)
	d.Switch.XiPos = mix(d.Switch.XiPos, e.Switch.XiPos)
	d.Switch.XiNeg = mix(d.Switch.XiNeg, e.Switch.XiNeg)
	d.Switch.DPos = mix(d.Switch.DPos, e.Switch.DPos)
	d.Switch.DNeg = mix(d.Switch.DNeg, e.Switch.DNeg)
	d.Switch.RemainingSwitches = mix(d.Switch.RemainingSwitches, e.Switch.RemainingSwitches)
	d.Switch.Trend = e.Switch.Trend // direction is categorical: report the newest
	for name, v := range e.Extra {
		if d.Extra == nil {
			d.Extra = make(map[string]float64, len(e.Extra))
		}
		if acc, ok := d.Extra[name]; ok {
			d.Extra[name] = mix(acc, v)
		} else {
			d.Extra[name] = v
		}
	}
}

// Estimates returns the selected windowed view. KindLast and KindDecayed
// fail until the first window completes; KindCurrent is always available.
func (r *Ring) Estimates(kind Kind) (Result, error) {
	switch kind {
	case KindCurrent:
		p := r.current()
		if p == nil {
			// Transiently possible only inside EndTask; externally a window is
			// always open.
			return Result{}, fmt.Errorf("window: no open window")
		}
		return Result{
			Estimates: p.suite.EstimateAll(),
			Kind:      KindCurrent,
			Start:     p.start,
			End:       r.tasks,
			Tasks:     int64(p.tasks),
			Complete:  false,
		}, nil
	case KindLast:
		if !r.haveLast {
			return Result{}, fmt.Errorf("window: no completed window yet (%d of %d tasks)", r.tasks, r.cfg.Size)
		}
		return Result{
			Estimates: r.last.Clone(),
			Kind:      KindLast,
			Start:     r.lastStart,
			End:       r.lastStart + int64(r.cfg.Size),
			Tasks:     int64(r.cfg.Size),
			Complete:  true,
		}, nil
	case KindDecayed:
		if r.cfg.DecayAlpha == 0 {
			return Result{}, fmt.Errorf("window: decayed aggregate disabled (decay_alpha is 0)")
		}
		if !r.haveDecay {
			return Result{}, fmt.Errorf("window: no completed window yet (%d of %d tasks)", r.tasks, r.cfg.Size)
		}
		return Result{
			Estimates: r.decayed.Clone(),
			Kind:      KindDecayed,
			Start:     r.decayStart,
			End:       r.decayStart + int64(r.cfg.Size),
			Tasks:     int64(r.cfg.Size),
			Complete:  true,
		}, nil
	default:
		return Result{}, fmt.Errorf("window: unknown kind %v", kind)
	}
}

// Reset clears all windowed state back to the start of an empty stream.
func (r *Ring) Reset() {
	for _, p := range r.panes {
		p.suite.Reset()
		p.start, p.tasks = -1, 0
	}
	r.panes[0].start = 0
	r.tasks = 0
	r.last, r.lastStart, r.haveLast = estimator.Estimates{}, 0, false
	r.decayed, r.decayStart, r.haveDecay = estimator.Estimates{}, 0, false
}
