// Package diagnose automates the end-user diagnosis workflow the paper
// leaves to the operator's judgement: walk the deployment with the
// workstation, interrogate every node with the LiteView commands, and
// cross-check what the nodes report about each other.
//
// The health check flags exactly the problem classes the paper's
// abstract promises the toolkit exposes:
//
//   - unreachable nodes (dead battery, wrong channel, out of position);
//   - isolated nodes (empty neighbor tables);
//   - asymmetric links, by comparing each link's LQI as seen from both
//     ends ("likely to become traffic bottlenecks");
//   - loss hotspots, from the MAC's retry/no-ack counters;
//   - exhausted batteries, from the energy meter;
//   - crashed nodes, unreachable yet still present in live peers'
//     neighbor tables (a recent failure, not a removed node);
//   - partitioned segments, connected components of the live topology
//     that cannot reach the largest segment;
//   - bursty links, whose hardware LQI looks healthy while the beacon
//     delivery ratio says most frames die (interference, jamming).
//
// DiagnosePath complements the deployment-wide health check with the
// paper's path-level workflow: run a traceroute and turn its hop
// reports into findings that name the hop where the path broke.
package diagnose

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"liteview/internal/core"
	"liteview/internal/phys"
)

// Target names one node the health check visits.
type Target struct {
	ID   phys.NodeID
	Name string
	// Pos is where the operator walks to interrogate the node (the
	// management protocol is one-hop).
	Pos phys.Position
}

// Severity ranks findings.
type Severity int

const (
	// Info findings are observations, not problems.
	Info Severity = iota
	// Warning findings degrade the deployment.
	Warning
	// Critical findings break connectivity.
	Critical
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Finding is one diagnosed problem.
type Finding struct {
	Severity Severity
	// Kind classifies the problem ("unreachable", "isolated",
	// "asymmetric-link", "loss-hotspot", "low-battery").
	Kind string
	// Node is the primary subject.
	Node phys.NodeID
	// Peer is the other end for link findings (0 otherwise).
	Peer phys.NodeID
	// Detail is the human-readable explanation.
	Detail string
}

// NodeHealth is the raw per-node interrogation result.
type NodeHealth struct {
	Target    Target
	Reachable bool
	Radio     core.RadioInfo
	Stats     core.NodeStats
	Energy    core.EnergyStats
	Neighbors []core.NbrEntry
}

// Report is a completed health check.
type Report struct {
	Nodes    []NodeHealth
	Findings []Finding
}

// Critical reports whether any finding is critical.
func (r *Report) Critical() bool {
	for _, f := range r.Findings {
		if f.Severity == Critical {
			return true
		}
	}
	return false
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "health check: %d node(s) visited, %d finding(s)\n", len(r.Nodes), len(r.Findings))
	for _, n := range r.Nodes {
		status := "ok"
		if !n.Reachable {
			status = "UNREACHABLE"
		}
		fmt.Fprintf(&b, "  %-14s %s", n.Target.Name, status)
		if n.Reachable {
			fmt.Fprintf(&b, "  power=%d ch=%d neighbors=%d battery=%.1f%% noack=%d",
				n.Radio.Power, n.Radio.Channel, len(n.Neighbors),
				float64(n.Energy.RemainingPermille)/10, n.Stats.MACNoAck)
		}
		b.WriteByte('\n')
	}
	if len(r.Findings) == 0 {
		b.WriteString("no problems found\n")
		return b.String()
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "[%s] %s: %s\n", f.Severity, f.Kind, f.Detail)
	}
	return b.String()
}

// Detector thresholds.
const (
	// asymmetryLQI flags links whose two ends disagree by at least this
	// many LQI units.
	asymmetryLQI = 15
	// lowBatteryPermille flags batteries at or below this level (20%).
	lowBatteryPermille = 200
	// lossHotspotNoAck flags nodes whose MAC abandoned at least this
	// many frames.
	lossHotspotNoAck = 10
	// burstyLQIMin and burstyPRRMax bound the bursty-link detector: a
	// link is bursty when its hardware LQI is at least burstyLQIMin (the
	// radio demodulates cleanly when it hears at all) yet the beacon
	// delivery ratio is at most burstyPRRMax percent (most frames never
	// arrive).
	burstyLQIMin = 90
	burstyPRRMax = 60
)

// HealthCheck walks the targets with the workstation, interrogates each
// node with one health query, and assembles the findings. A node is
// reachable when its radio settings arrived.
func HealthCheck(ws *core.Workstation, targets []Target) (*Report, error) {
	if ws == nil {
		return nil, errors.New("diagnose: nil workstation")
	}
	if len(targets) == 0 {
		return nil, errors.New("diagnose: no targets")
	}
	report := &Report{}
	for _, tgt := range targets {
		ws.MoveTo(tgt.Pos)
		h := NodeHealth{Target: tgt}
		if out, err := ws.Health(tgt.ID); err == nil {
			h.Reachable = true
			h.Radio, h.Stats, h.Energy, h.Neighbors = out.Radio, out.Stats, out.Energy, out.Neighbors
		}
		report.Nodes = append(report.Nodes, h)
	}
	report.Findings = analyze(report.Nodes)
	return report, nil
}

// analyze derives findings from the interrogation results.
func analyze(nodes []NodeHealth) []Finding {
	var out []Finding
	names := make(map[phys.NodeID]string, len(nodes))
	for _, n := range nodes {
		names[n.Target.ID] = n.Target.Name
	}
	// lqi[a][b] = LQI of the link b→a as estimated by a's kernel table.
	lqi := make(map[phys.NodeID]map[phys.NodeID]int)
	// prr[a][b] = beacon delivery ratio (percent) of b→a as seen at a.
	prr := make(map[phys.NodeID]map[phys.NodeID]int)
	// susp[a][b] = unicast delivery percent of a→b, present only when
	// a's delivery estimator has marked the link to b suspect
	// (consecutive failed unicasts) — the self-healing layer's signal.
	susp := make(map[phys.NodeID]map[phys.NodeID]int)
	var unreachable []phys.NodeID
	for _, n := range nodes {
		if !n.Reachable {
			unreachable = append(unreachable, n.Target.ID)
			out = append(out, Finding{
				Severity: Critical, Kind: "unreachable", Node: n.Target.ID,
				Detail: fmt.Sprintf("%s did not answer management commands (dead node, wrong channel, or moved)", n.Target.Name),
			})
			continue
		}
		if len(n.Neighbors) == 0 {
			out = append(out, Finding{
				Severity: Critical, Kind: "isolated", Node: n.Target.ID,
				Detail: fmt.Sprintf("%s has an empty neighbor table", n.Target.Name),
			})
		}
		if int(n.Energy.RemainingPermille) <= lowBatteryPermille {
			out = append(out, Finding{
				Severity: Warning, Kind: "low-battery", Node: n.Target.ID,
				Detail: fmt.Sprintf("%s battery at %.1f%%", n.Target.Name, float64(n.Energy.RemainingPermille)/10),
			})
		}
		if int(n.Stats.MACNoAck) >= lossHotspotNoAck {
			out = append(out, Finding{
				Severity: Warning, Kind: "loss-hotspot", Node: n.Target.ID,
				Detail: fmt.Sprintf("%s abandoned %d frames after retries (%d retransmissions)",
					n.Target.Name, n.Stats.MACNoAck, n.Stats.MACRetries),
			})
		}
		row := make(map[phys.NodeID]int, len(n.Neighbors))
		prow := make(map[phys.NodeID]int, len(n.Neighbors))
		srow := make(map[phys.NodeID]int)
		for _, e := range n.Neighbors {
			row[e.ID] = int(e.LQI)
			prow[e.ID] = int(e.PRRPercent)
			if e.Suspect {
				srow[e.ID] = int(e.DeliveryPercent)
			}
		}
		lqi[n.Target.ID] = row
		prr[n.Target.ID] = prow
		susp[n.Target.ID] = srow
	}
	// Crashed nodes: an unreachable node still listed in a live peer's
	// neighbor table failed recently — the peers have not yet aged it
	// out, so the operator is looking at a crash or reboot loop rather
	// than a node that was removed or never deployed.
	for _, dead := range unreachable {
		var witnesses, suspectWitnesses []string
		for a, row := range lqi {
			if _, heard := row[dead]; heard {
				witnesses = append(witnesses, names[a])
				if _, s := susp[a][dead]; s {
					suspectWitnesses = append(suspectWitnesses, names[a])
				}
			}
		}
		if len(witnesses) > 0 {
			sort.Strings(witnesses)
			detail := fmt.Sprintf("%s is still in the neighbor tables of %s — it was alive recently, so this looks like a crash, not a missing node",
				names[dead], strings.Join(witnesses, ", "))
			severity := Warning
			if len(suspectWitnesses) > 0 {
				// The delivery estimators corroborate: peers are actively
				// failing to deliver unicasts to it right now, not just
				// remembering old beacons. That upgrades the verdict.
				sort.Strings(suspectWitnesses)
				severity = Critical
				detail += fmt.Sprintf("; %s mark their link to it suspect (consecutive unicast failures), confirming it stopped acknowledging",
					strings.Join(suspectWitnesses, ", "))
			}
			out = append(out, Finding{
				Severity: severity, Kind: "crashed-node", Node: dead,
				Detail: detail,
			})
		}
	}
	// Partitioned segments: connected components of the live topology,
	// with an (undirected) edge wherever either end heard the other.
	// Every component outside the largest one is cut off from it.
	if comps := components(lqi); len(comps) > 1 {
		for _, comp := range comps[1:] { // comps[0] is the largest
			var members []string
			for _, id := range comp {
				members = append(members, names[id])
			}
			out = append(out, Finding{
				Severity: Critical, Kind: "partitioned-segment", Node: comp[0],
				Detail: fmt.Sprintf("segment {%s} is cut off from the main deployment (%d node(s) unreachable over multihop routes)",
					strings.Join(members, ", "), len(comp)),
			})
		}
	}
	// Bursty links: the radio reports a clean signal whenever a frame
	// does get through (high LQI) but the beacon delivery ratio says
	// most frames die in flight — classic interference or jamming, and
	// invisible to an LQI-driven routing metric. Observers and peers are
	// visited in ID order, so when both directions of a pair qualify the
	// lower-numbered node's view is the one reported.
	burstSeen := make(map[[2]phys.NodeID]bool)
	for _, a := range sortedIDs(prr) {
		prow := prr[a]
		for _, b := range sortedIDs(prow) {
			p := prow[b]
			if _, visited := lqi[b]; !visited {
				continue // only judge links between interrogated nodes
			}
			q, heard := lqi[a][b]
			if !heard || q < burstyLQIMin || p > burstyPRRMax {
				continue
			}
			key := [2]phys.NodeID{min2(a, b), max2(a, b)}
			if burstSeen[key] {
				continue
			}
			burstSeen[key] = true
			detail := fmt.Sprintf("link %s↔%s: LQI %d looks healthy but only %d%% of beacons arrive — bursty loss (interference or jamming)",
				names[a], names[b], q, p)
			if d, s := susp[a][b]; s {
				// Both ends are alive, so this is the link misbehaving,
				// not a crashed peer: the estimator's suspect flag plus a
				// reachable far end pins the verdict on the channel.
				detail += fmt.Sprintf("; %s's delivery estimator agrees (link suspect, unicast delivery ~%d%%) while %s itself answers commands",
					names[a], d, names[b])
			}
			out = append(out, Finding{
				Severity: Warning, Kind: "bursty-link", Node: key[0], Peer: key[1],
				Detail: detail,
			})
		}
	}
	// Suspect links between two reachable nodes that the bursty detector
	// did not already flag: the delivery estimator is seeing consecutive
	// unicast failures the beacon statistics have not caught up with —
	// the earliest visible sign of a degrading link. Visited in ID order,
	// like the bursty links.
	for _, a := range sortedIDs(susp) {
		srow := susp[a]
		for _, b := range sortedIDs(srow) {
			d := srow[b]
			if _, visited := lqi[b]; !visited {
				continue // far end not interrogated (or unreachable: crash findings own it)
			}
			key := [2]phys.NodeID{min2(a, b), max2(a, b)}
			if burstSeen[key] {
				continue
			}
			burstSeen[key] = true
			out = append(out, Finding{
				Severity: Warning, Kind: "suspect-link", Node: key[0], Peer: key[1],
				Detail: fmt.Sprintf("link %s→%s: delivery estimator marked it suspect after consecutive unicast failures (delivery ~%d%%), though %s still answers commands — watch for reroutes",
					names[a], names[b], d, names[b]),
			})
		}
	}
	// Link symmetry: compare both ends' estimates of the same link.
	type pair struct{ a, b phys.NodeID }
	seen := make(map[pair]bool)
	for a, row := range lqi {
		for b, ab := range row { // ab: quality of b→a as seen at a
			if a == b {
				continue
			}
			key := pair{min2(a, b), max2(a, b)}
			if seen[key] {
				continue
			}
			ba, ok := lqi[b][a] // quality of a→b as seen at b
			if !ok {
				continue // b never heard a; one-way audibility is its own smell but noisy
			}
			seen[key] = true
			diff := ab - ba
			if diff < 0 {
				diff = -diff
			}
			if diff >= asymmetryLQI {
				out = append(out, Finding{
					Severity: Warning, Kind: "asymmetric-link", Node: key.a, Peer: key.b,
					Detail: fmt.Sprintf("link %s↔%s: LQI %d one way vs %d the other (Δ%d)",
						names[key.a], names[key.b], lqi[key.a][key.b], lqi[key.b][key.a], diff),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// sortedIDs returns m's keys in ascending order.
func sortedIDs[V any](m map[phys.NodeID]V) []phys.NodeID {
	ids := make([]phys.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func min2(a, b phys.NodeID) phys.NodeID {
	if a < b {
		return a
	}
	return b
}

func max2(a, b phys.NodeID) phys.NodeID {
	if a > b {
		return a
	}
	return b
}

// components returns the connected components of the live topology,
// largest first (ties broken by smallest member), members ascending.
// An undirected edge exists wherever either end heard the other.
func components(lqi map[phys.NodeID]map[phys.NodeID]int) [][]phys.NodeID {
	ids := sortedIDs(lqi)
	visited := make(map[phys.NodeID]bool, len(ids))
	var comps [][]phys.NodeID
	for _, start := range ids {
		if visited[start] {
			continue
		}
		var comp []phys.NodeID
		queue := []phys.NodeID{start}
		visited[start] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			var nbrs []phys.NodeID
			for b := range lqi[cur] {
				if _, live := lqi[b]; live {
					nbrs = append(nbrs, b)
				}
			}
			for a, row := range lqi {
				if _, heardCur := row[cur]; heardCur {
					nbrs = append(nbrs, a)
				}
			}
			sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
			for _, b := range nbrs {
				if !visited[b] {
					visited[b] = true
					queue = append(queue, b)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.SliceStable(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// PathReport is the outcome of a path diagnosis: the traceroute's raw
// output plus findings that name the failing hop.
type PathReport struct {
	Traceroute *core.TracerouteOutput
	Findings   []Finding
}

// String renders the path report for terminal output.
func (p *PathReport) String() string {
	var b strings.Builder
	if p.Traceroute != nil {
		fmt.Fprintf(&b, "path diagnosis: %d hop report(s): %s\n", len(p.Traceroute.Reports), p.Traceroute.Verdict)
	}
	if len(p.Findings) == 0 {
		b.WriteString("path healthy\n")
		return b.String()
	}
	for _, f := range p.Findings {
		fmt.Fprintf(&b, "[%s] %s: %s\n", f.Severity, f.Kind, f.Detail)
	}
	return b.String()
}

// DiagnosePath runs the paper's path-level workflow: walk to the source
// node, traceroute toward the destination, and read the hop reports
// into findings that name the failing hop. A dead destination, a
// crashed relay, or a partition each yield a distinct verdict rather
// than a silent timeout. Only tests call it today: the ROADMAP item
// "Score LiteView's diagnosis against the injected truth" gives it a
// shell command.
func DiagnosePath(ws *core.Workstation, from Target, opts core.TrOptions) (*PathReport, error) {
	if ws == nil {
		return nil, errors.New("diagnose: nil workstation")
	}
	ws.MoveTo(from.Pos)
	out, err := ws.Traceroute(from.ID, opts)
	if out == nil {
		return nil, fmt.Errorf("diagnose: traceroute from %s: %w", from.Name, err)
	}
	rep := &PathReport{Traceroute: out}
	f := Finding{Severity: Critical, Node: out.Verdict.Node,
		Detail: fmt.Sprintf("traceroute %s→%d: %s", from.Name, opts.Dst, out.Verdict)}
	switch out.Verdict.Kind {
	case core.VerdictReached:
		return rep, nil
	case core.VerdictNoAnswer, core.VerdictRouteLost:
		f.Kind = "path-broken"
	case core.VerdictIncomplete:
		f.Severity, f.Kind = Warning, "path-partial"
	default:
		f.Kind = "path-unreachable"
	}
	rep.Findings = append(rep.Findings, f)
	return rep, nil
}

// Pair names one source→destination RTT probe of a survey.
type Pair struct {
	// From is the node the ping command runs on; the workstation walks
	// to it first.
	From Target
	// To is the probed node.
	To phys.NodeID
}

// PairResult is one surveyed pair.
type PairResult struct {
	Pair Pair
	// MeanRTTMs averages the successful rounds.
	MeanRTTMs float64
	// MaxQueue is the largest remote queue occupancy observed.
	MaxQueue int
	Received int
	Lost     int
}

// RTTSurvey runs the abstract's hotspot workflow: ping each pair a few
// rounds and rank the pairs by mean round-trip delay, slowest first —
// elevated RTT, queue occupancy, and loss mark the congested
// neighborhoods.
func RTTSurvey(ws *core.Workstation, pairs []Pair, rounds int) ([]PairResult, error) {
	if ws == nil {
		return nil, errors.New("diagnose: nil workstation")
	}
	if len(pairs) == 0 {
		return nil, errors.New("diagnose: no pairs")
	}
	if rounds <= 0 {
		rounds = 5
	}
	out := make([]PairResult, 0, len(pairs))
	for _, pr := range pairs {
		ws.MoveTo(pr.From.Pos)
		res := PairResult{Pair: pr}
		ping, err := ws.Ping(pr.From.ID, core.PingOptions{Dst: pr.To, Rounds: rounds, Length: 32})
		if err != nil {
			return nil, fmt.Errorf("diagnose: survey %s→%d: %w", pr.From.Name, pr.To, err)
		}
		res.Lost = ping.Lost
		for _, r := range ping.Results {
			if r.Lost {
				continue
			}
			res.Received++
			res.MeanRTTMs += float64(r.RTT) / 1000
			if int(r.QFwd) > res.MaxQueue {
				res.MaxQueue = int(r.QFwd)
			}
		}
		if res.Received > 0 {
			res.MeanRTTMs /= float64(res.Received)
		}
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lost != out[j].Lost {
			return out[i].Lost > out[j].Lost
		}
		return out[i].MeanRTTMs > out[j].MeanRTTMs
	})
	return out, nil
}
