package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// spanRec is one traced interval recorded by the benchmark's own code
// around a call into a layer. Start and End are offsets from the run's
// epoch; Parent is the ID of the span that caused it (0 for a root).
// Spans are kept in memory during the run and written out at exit.
type spanRec struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Tenant string        `json:"tenant"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// linkSpans gives one tenant's spans IDs and parents: session.open is a
// root, each client.run a child of its session, each runner.run (the
// wrapped Runner.Run on the tenant goroutine) a child of the client.run
// that caused it, and the tenant's set-up phases roots of their own.
func (res *result) linkSpans(tenant string, ld *tenantLoad, p *probe, id uint64) uint64 {
	add := func(s spanRec) uint64 {
		s.ID, s.Tenant = id, tenant
		id++
		res.spans = append(res.spans, s)
		return s.ID
	}
	if !p.ph.start.IsZero() {
		b := p.ph.start.Sub(p.epoch)
		add(spanRec{Name: "setup.build", Start: b, End: b + p.ph.build})
		add(spanRec{Name: "setup.warmup", Start: b + p.ph.build, End: b + p.ph.build + p.ph.warmup})
	}
	sessIDs := make([]uint64, len(ld.sessions))
	for i, s := range ld.sessions {
		sessIDs[i] = add(s)
	}
	for i, c := range ld.cmds {
		c.Parent = sessIDs[c.Parent]
		cid := add(c)
		if i < len(p.spans) {
			r := p.spans[i]
			r.Parent = cid
			add(r)
		}
	}
	return id
}

// selfTimes sums each span name's self time: its duration minus the
// part of its interval that its children cover.
func selfTimes(spans []spanRec) map[string]time.Duration {
	children := make(map[uint64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent spanRec, kids []spanRec) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, end := parent.Start, parent.Start
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > end {
			total += end - cur
			cur = s
		}
		end = max(end, e)
	}
	return total + end - cur
}

// writeSpans dumps the spans and their per-name self times as JSON.
func writeSpans(path string, spans []spanRec) error {
	self := make(map[string]float64)
	for name, d := range selfTimes(spans) {
		self[name] = float64(d) / 1e6
	}
	b, err := json.Marshal(struct {
		SelfMs map[string]float64 `json:"self_ms"`
		Spans  []spanRec          `json:"spans"`
	}{self, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
