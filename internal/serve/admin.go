package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"liteview/internal/telemetry"
)

// AdminHandler serves the HTTP admin surface next to the wire protocol:
//
//	GET /healthz  liveness  — 200 while the process answers
//	GET /readyz   readiness — 200 while accepting work, 503 draining
//	GET /metricz  service metrics, Prometheus exposition format
//	              (?format=plain for the legacy "name value" lines)
//	GET /streamz  live telemetry for one tenant as Server-Sent Events
//
// cmd/lvserved mounts it on a separate loopback port so orchestrators
// probe the daemon without speaking the tenant protocol.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Healthz())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Healthz()
		code := http.StatusOK
		if !h.Ready {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if r.URL.Query().Get("format") == "plain" {
			w.Write([]byte(telemetry.FormatSnapshot(s.MetricsSnapshot())))
			return
		}
		s.met.writePrometheus(w)
	})
	mux.HandleFunc("/streamz", s.handleStreamz)
	return mux
}

// handleStreamz streams one tenant's telemetry as Server-Sent Events:
// each frame is `data: {json}` in the recorder's JSONL line format.
//
// Query parameters:
//
//	tenant  (required) tenant name; must already exist — /streamz never
//	        creates simulations
//	node, layer, kind, link, span   filter (as lvctl -watch)
//	replay=N   first emit the newest N events the tenant recorded
//	           (after an operator's `trace on`; the tenant keeps the
//	           newest telemetry.RingDepth)
//	for=DUR    stop after a wall-clock duration (e.g. 30s); default
//	           streams until the client disconnects or the drain begins
//	max=N      cap streamed events per second
//
// Like a wire watch, attaching is zero-perturbation: the stream rides a
// Subscription, so the simulation's byte-identical determinism holds
// with any number of streamz clients attached.
func (s *Server) handleStreamz(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("tenant")
	if name == "" {
		http.Error(w, "streamz: tenant parameter is required", http.StatusBadRequest)
		return
	}
	t := s.tenantNamed(name)
	if t == nil {
		http.Error(w, "streamz: no such tenant (streamz never creates one)", http.StatusNotFound)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streamz: streaming unsupported", http.StatusInternalServerError)
		return
	}
	spec := WatchSpec{
		Node:      parseUint(q.Get("node")),
		Layer:     q.Get("layer"),
		Kind:      q.Get("kind"),
		Link:      q.Get("link"),
		Span:      parseUint(q.Get("span")),
		MaxPerSec: int(parseUint(q.Get("max"))),
	}
	if v := q.Get("for"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, "streamz: bad for= duration: "+err.Error(), http.StatusBadRequest)
			return
		}
		spec.ForMs = int64((d + time.Millisecond - 1) / time.Millisecond)
	}

	f, err := spec.filter()
	if err != nil {
		http.Error(w, "streamz: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Subscribe before writing headers so frames can't be lost between
	// replay and live.
	sub, err := s.subscribe(t, f, spec.Depth)
	if err != nil {
		http.Error(w, "streamz: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	if sub == nil {
		http.Error(w, "streamz: tenant exposes no telemetry", http.StatusNotFound)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.met.inc("serve.streamz.started")
	defer s.met.inc("serve.streamz.ended")

	if n := int(parseUint(q.Get("replay"))); n > 0 {
		// `trace dump N` prints the newest N recorded events as JSONL on
		// the tenant goroutine — the race-free way to read history.
		out, _, err := s.submit(t, fmt.Sprintf("trace dump %d", n))
		if err == nil {
			for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
				if strings.HasPrefix(line, "{") {
					fmt.Fprintf(w, "data: %s\n\n", line)
				}
			}
			flusher.Flush()
		}
	}

	reason := s.stream(sub, spec, r.Context().Done(), s.isDraining, func(events []telemetry.Event) bool {
		for i := range events {
			fmt.Fprintf(w, "data: %s\n\n", telemetry.JSONLine(&events[i]))
		}
		s.met.add("serve.streamz.frames", len(events))
		flusher.Flush()
		return true
	})
	if reason == "elapsed" || reason == "draining" {
		fmt.Fprintf(w, "event: end\ndata: %s dropped=%d\n\n", reason, sub.Dropped())
		flusher.Flush()
	}
}

func parseUint(s string) uint64 {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return v
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
