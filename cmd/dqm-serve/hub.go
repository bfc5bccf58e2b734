// Watch fan-out wiring: connects the engine's sessions and the estimates wire
// format to internal/hub, which encodes each published version once and
// multicasts the pre-serialized bytes to every SSE subscriber (and serves
// them to conditional GET readers via ETag/If-None-Match). The same hub
// entry drives the session's quality gate (see gate.go).
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"dqm"
	"dqm/internal/hub"
)

// viewForKind maps a parsed window kind onto the hub's frame-cache slots.
func viewForKind(kind dqm.WindowKind) hub.View {
	switch kind {
	case dqm.WindowCurrent:
		return hub.ViewCurrent
	case dqm.WindowLast:
		return hub.ViewLast
	default:
		return hub.ViewDecayed
	}
}

// kindForView is the inverse mapping for the hub's Encode callback.
func kindForView(view hub.View) dqm.WindowKind {
	switch view {
	case hub.ViewCurrent:
		return dqm.WindowCurrent
	case hub.ViewLast:
		return dqm.WindowLast
	default:
		return dqm.WindowDecayed
	}
}

// errEncode marks serialization failures (as opposed to a windowed view that
// has no data yet): the estimates handler maps it to 500, not 409.
var errEncode = errors.New("encode estimates payload")

// setupHub builds the watch hub over the engine. Called once from newServer
// after setupObservability (the encode-error counter lives on s.reg).
func (s *server) setupHub() {
	s.watchEncodeErrs = s.reg.Counter("dqm_http_watch_encode_errors_total",
		"Estimate payload serialization failures in the watch/read plane (the cursor still advances).")
	s.hub = hub.New(hub.Config{
		Resolve: func(id string) (hub.Session, bool) {
			sess, ok := s.engine.Session(id)
			if !ok {
				return nil, false
			}
			return hubSession{sess}, true
		},
		Encode: s.encodeEstimates,
		// The pump's publish floor: mutation bursts within it collapse into
		// one subscriber wakeup. Half the subscriber floor keeps the extra
		// delivery latency within the interval clients asked for.
		MinInterval:     s.cfg.WatchMinInterval / 2,
		Heartbeat:       15 * time.Second,
		GateMinInterval: s.cfg.GateMinInterval,
		OnTransition:    s.onTransition,
	})
}

// encodeEstimates renders one view of a session, exactly once per version
// (the hub caches the result). The returned version is read BEFORE the
// estimates so concurrent mutation yields re-delivery, never a skip.
func (s *server) encodeEstimates(hs hub.Session, view hub.View) ([]byte, uint64, error) {
	sess := hs.(hubSession).Session
	v := sess.Version()
	var (
		out estimatesJSON
		err error
	)
	if view == hub.ViewAll {
		out = estimatesToJSON(sess)
	} else {
		out, err = windowedToJSON(sess, kindForView(view))
		if err != nil {
			return nil, v, err
		}
	}
	b, merr := json.Marshal(out)
	if merr != nil {
		s.watchEncodeErrs.Inc()
		return nil, v, fmt.Errorf("%w: %v", errEncode, merr)
	}
	return b, out.Version, nil
}

// etagMatches reports whether the If-None-Match header value matches the
// entity tag: a comma-separated list, each entry possibly weak-prefixed
// (W/"v" — version equality is semantic equivalence here), or the wildcard.
func etagMatches(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}
