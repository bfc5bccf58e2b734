package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"dqm"
	"dqm/internal/policy"
)

// The quality-gate plane: a gated session's policy.Gate lives in its hub
// entry, whose pump (the one that wakes the session's watchers) re-evaluates
// it on mutation and caches the decision pre-serialized, so GET .../gate is
// a frame load plus one write. Action transitions reach onTransition, which
// enqueues the decision on the shared bounded webhook dispatcher.

// hubSession adapts *dqm.Session to hub.Session. Inputs reads the version
// BEFORE the estimates (the read plane's at-least-once discipline) and only
// computes the bootstrap CI or windowed drift view when the policy needs it.
type hubSession struct {
	*dqm.Session
	// noSwitch marks a session that does not select SWITCH, read once when
	// the hub resolves it: its rules over remaining, switch_total and
	// drift_ratio are unavailable.
	noSwitch bool
}

func newHubSession(sess *dqm.Session) hubSession {
	return hubSession{sess, !slices.Contains(sess.EstimatorNames(), "SWITCH")}
}

func (sess hubSession) Inputs(need policy.Needs) (policy.Inputs, error) {
	in := policy.Inputs{Version: sess.Version(), NoSwitch: sess.noSwitch}
	est := sess.Estimates()
	in.Remaining = est.Remaining()
	in.SwitchTotal = est.Switch.Total
	in.Tasks = sess.Tasks()
	in.Votes = sess.TotalVotes()
	if need.CI {
		// Unavailable (confidence not tracked, no data yet) is not an error:
		// the rule is reported as unavailable in the decision instead.
		if ci, err := sess.SwitchCI(need.CIReplicates, need.CILevel); err == nil {
			in.CIUpper = ci.Hi
			in.HasCI = true
		}
	}
	if need.Drift && !sess.noSwitch {
		if we, err := sess.WindowEstimates(dqm.WindowDecayed); err == nil {
			in.DriftRatio = policy.DriftRatio(we.Estimates.Remaining(), in.Remaining)
			in.HasDrift = true
		}
	}
	return in, nil
}

// gate returns the session's live gate, if any: a lock-free hub lookup.
func (s *server) gate(id string) *policy.Gate {
	return s.hub.Gate(id)
}

// ensureGate attaches a gate to the session if it should have one (its own
// persisted policy, else the server default) and doesn't yet — the path by
// which created, recovered, and LRU-revived sessions all come online. Per
// request it costs two atomic loads when ungated and a lock-free hub lookup
// when gated. Attaching by id binds the gate to the incarnation the hub
// resolves, which the session's eviction Drops.
func (s *server) ensureGate(sess *dqm.Session) *policy.Gate {
	raw := sess.PolicyJSON()
	if raw == nil {
		raw = s.cfg.DefaultPolicy
	}
	if raw == nil {
		return nil
	}
	if g := s.gate(sess.ID()); g != nil {
		return g
	}
	p, err := policy.Parse(raw)
	if err != nil {
		// A persisted policy that no longer parses (schema skew across
		// versions) must not brick the session; it serves ungated and the
		// operator re-PUTs.
		return nil
	}
	g, _ := s.hub.AttachGate(sess.ID(), p)
	return g
}

// onTransition enqueues a transition's decision document for the gate's
// webhook. The webhook config is read from the gate's CURRENT policy, so a
// PUT that changes the URL redirects in-flight transitions too.
func (s *server) onTransition(g *policy.Gate, _ policy.Action, f *policy.Frame) {
	p := g.Policy()
	if p == nil || p.Webhook == nil {
		return
	}
	s.dispatcher.Enqueue(policy.Delivery{
		URL:         p.Webhook.URL,
		Body:        f.Body,
		Timeout:     time.Duration(p.Webhook.TimeoutMS) * time.Millisecond,
		MaxAttempts: p.Webhook.MaxAttempts,
	})
}

// handleGate serves the cached gate decision: pre-serialized bytes, tagged
// with the decision's session version, honoring If-None-Match with a 304.
func (s *server) handleGate(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	g := s.ensureGate(sess)
	if g == nil {
		writeError(w, http.StatusNotFound, codePolicyNotFound,
			"session %q has no policy attached (PUT /v1/sessions/%s/policy or start with -policy-file)",
			sess.ID(), sess.ID())
		return
	}
	f := g.Frame()
	etag := `"` + strconv.FormatUint(f.Version, 10) + `"`
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(f.Body)
	_, _ = w.Write([]byte{'\n'})
}

// handlePutPolicy validates, persists (session meta survives restart), and
// attaches the policy, re-evaluating synchronously so the response reports
// the decision under the new rules.
func (s *server) handlePutPolicy(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, codeInvalidBody, "reading request body: %v", err)
		return
	}
	p, err := policy.Parse(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidPolicy, "%v", err)
		return
	}
	if err := s.engine.SetSessionPolicy(sess.ID(), raw); err != nil {
		writeError(w, http.StatusServiceUnavailable, codeJournalUnavailable, "%v", err)
		return
	}
	g, ok := s.hub.SetPolicy(sess.ID(), p)
	if !ok {
		writeError(w, http.StatusNotFound, codeSessionNotFound, "unknown session %q", sess.ID())
		return
	}
	f := g.Frame()
	writeJSON(w, http.StatusOK, map[string]any{
		"policy":  json.RawMessage(raw),
		"source":  "session",
		"action":  f.Action.String(),
		"version": f.Version,
	})
}

// handleGetPolicy returns the effective policy and where it came from: the
// session's own document, or the server-wide -policy-file default.
func (s *server) handleGetPolicy(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	raw, source := sess.PolicyJSON(), "session"
	if raw == nil {
		raw, source = s.cfg.DefaultPolicy, "server_default"
	}
	if raw == nil {
		writeError(w, http.StatusNotFound, codePolicyNotFound, "session %q has no policy attached", sess.ID())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"policy": json.RawMessage(raw),
		"source": source,
	})
}

// handleDeletePolicy removes the session's own policy. The server default
// (if any) takes back over — it is server configuration, not session state,
// so it cannot be deleted per session.
func (s *server) handleDeletePolicy(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	if sess.PolicyJSON() == nil {
		writeError(w, http.StatusNotFound, codePolicyNotFound, "session %q has no policy attached", sess.ID())
		return
	}
	if err := s.engine.SetSessionPolicy(sess.ID(), nil); err != nil {
		writeError(w, http.StatusServiceUnavailable, codeJournalUnavailable, "%v", err)
		return
	}
	if s.cfg.DefaultPolicy != nil {
		if p, err := policy.Parse(s.cfg.DefaultPolicy); err == nil {
			s.hub.SetPolicy(sess.ID(), p)
		}
	} else {
		s.hub.DetachGate(sess.ID())
	}
	w.WriteHeader(http.StatusNoContent)
}
