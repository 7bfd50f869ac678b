// Command lvctl is the operator client for lvserved: it attaches to a
// tenant's simulated testbed over the newline-delimited JSON protocol
// and drives the LiteView shell command set remotely.
//
//	lvctl -tenant lab-a                                   # interactive
//	lvctl -tenant lab-a -c "cd 192.168.0.1; ping 192.168.0.3"
//	lvctl -tenant lab-a -watch -layer mac -count 50       # live telemetry
//	lvctl -healthz                                        # probe only
//	lvctl -recovery                                       # crash-recovery status
//	lvctl -clear lab-a                                    # lift a quarantine
//
// A watch survives transient disconnects (a daemon restart mid-stream):
// it reconnects with capped exponential backoff and marks the seam with
// a "# reconnected (n dropped)" comment line; -reconnect=false restores
// the old exit-on-disconnect behavior.
//
// Exit status: 0 when every command succeeded, 1 on a command or
// transport error (the first failing command ends a -c script).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"liteview/internal/serve"
	"liteview/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7117", "lvserved wire-protocol address")
		tenant   = flag.String("tenant", "default", "tenant (testbed) to attach to")
		script   = flag.String("c", "", "run these semicolon-separated commands and exit")
		healthz  = flag.Bool("healthz", false, "print the daemon's health report and exit")
		metrics  = flag.Bool("metrics", false, "print the daemon's service metrics and exit")
		recovery = flag.Bool("recovery", false, "print the daemon's crash-recovery status and exit")
		clear    = flag.String("clear", "", "lift this tenant's quarantine (implies -recovery)")
		watch    = flag.Bool("watch", false, "stream the tenant's telemetry as JSONL to stdout")
		rewatch  = flag.Bool("reconnect", true, "watch: reconnect with backoff on transient disconnects")
		wNode    = flag.Uint64("node", 0, "watch: only events owned by this node id (0 = any)")
		wLayer   = flag.String("layer", "", "watch: only events from this layer (medium, mac, routing, ...)")
		wKind    = flag.String("kind", "", "watch: only events of this kind (tx, rx, cca, ...)")
		wLink    = flag.String("link", "", "watch: only events on this A-B node-id link")
		wSpan    = flag.Uint64("span", 0, "watch: only events of this command span id (0 = any)")
		wCount   = flag.Int("count", 0, "watch: stop after this many frames (0 = stream forever)")
		wFor     = flag.Duration("for", 0, "watch: stop after this long (enforced server-side)")
	)
	flag.Parse()

	if *healthz || *metrics || *recovery || *clear != "" {
		probe(*addr, *healthz, *metrics, *recovery || *clear != "", *clear)
		return
	}

	if *watch {
		spec := serve.WatchSpec{Node: *wNode, Layer: *wLayer, Kind: *wKind, Link: *wLink,
			Span: *wSpan, ForMs: wFor.Milliseconds()}
		deadline := time.Time{}
		if *wFor > 0 {
			deadline = time.Now().Add(*wFor)
		}
		frames := 0
		var dropped uint64
		// Comment frames ("# reconnected ...") mark reconnect seams; they
		// are printed but never counted against -count.
		sink := func(line string, drop uint64) bool {
			fmt.Println(line)
			if strings.HasPrefix(line, "#") {
				return true
			}
			frames++
			dropped = drop
			if *wCount > 0 && frames >= *wCount {
				return false
			}
			return deadline.IsZero() || time.Now().Before(deadline)
		}
		var err error
		if *rewatch {
			logf := func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "lvctl: "+format+"\n", args...)
			}
			err = serve.WatchRetry(*addr, *tenant, spec, serve.RetrySpec{}, sink, logf)
		} else {
			var c *serve.Client
			c, err = serve.Dial(*addr, *tenant)
			if err == nil {
				defer c.Close()
				err = c.Watch(spec, sink)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvctl:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lvctl: watch ended after %d frame(s), %d dropped\n", frames, dropped)
		return
	}

	c, err := serve.Dial(*addr, *tenant)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvctl:", err)
		os.Exit(1)
	}
	defer c.Close()

	if *script != "" {
		for _, line := range strings.Split(*script, ";") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			fmt.Printf("%s$ %s\n", *tenant, line)
			if !runOne(c, line) {
				os.Exit(1)
			}
		}
		return
	}

	fmt.Printf("lvctl: attached to tenant %q on %s. Type 'help' for commands, 'exit' to quit.\n", *tenant, *addr)
	in := bufio.NewScanner(os.Stdin)
	cwd := "/"
	for {
		fmt.Printf("%s:%s$ ", *tenant, cwd)
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			return
		}
		resp, err := c.Run(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvctl:", err)
			os.Exit(1)
		}
		fmt.Print(resp.Output)
		if resp.Error != "" {
			hint := ""
			if resp.Transient {
				hint = " (transient: retry may help)"
			}
			fmt.Fprintf(os.Stderr, "error [%s]%s: %s\n", resp.Code, hint, resp.Error)
		}
		if resp.Cwd != "" {
			cwd = resp.Cwd
		}
	}
}

// runOne executes one scripted command, reporting success.
func runOne(c *serve.Client, line string) bool {
	resp, err := c.Run(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvctl:", err)
		return false
	}
	fmt.Print(resp.Output)
	if resp.Error != "" {
		fmt.Fprintf(os.Stderr, "error [%s]: %s\n", resp.Code, resp.Error)
		return false
	}
	return true
}

// probe prints health, metrics, and/or recovery status without
// attaching to any tenant. A non-empty clear lifts that tenant's
// quarantine before the recovery status prints.
func probe(addr string, health, metrics, recovery bool, clear string) {
	c, err := serve.Dial(addr, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvctl:", err)
		os.Exit(1)
	}
	defer c.Close()
	if health {
		h, err := c.Healthz()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvctl:", err)
			os.Exit(1)
		}
		state := "ready"
		if h.Draining {
			state = "draining"
		} else if !h.Ready {
			state = "not ready"
		}
		fmt.Printf("live=%v %s, %d session(s), %d tenant(s), up %dms\n",
			h.Live, state, h.Sessions, len(h.Tenants), h.UptimeMs)
		for _, t := range h.Tenants {
			extra := ""
			if t.State != "" && t.State != "serving" {
				extra += " state=" + t.State
			}
			if t.Restarts > 0 {
				extra += fmt.Sprintf(" restarts=%d", t.Restarts)
			}
			if t.Dead != "" {
				extra += " DEAD: " + t.Dead
			}
			fmt.Printf("  tenant %-16s sessions=%d queued=%d breaker=%s%s\n",
				t.Name, t.Sessions, t.Queued, t.Breaker, extra)
		}
		for _, q := range h.Quarantined {
			fmt.Printf("  tenant %-16s QUARANTINED after %d restart(s): %s\n", q.Tenant, q.Restarts, q.Reason)
		}
		if !h.Ready {
			os.Exit(1)
		}
	}
	if recovery {
		st, err := c.Recovery(clear)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvctl:", err)
			os.Exit(1)
		}
		if clear != "" {
			fmt.Printf("quarantine cleared: %s\n", clear)
		}
		fmt.Printf("recovery enabled=%v restored=%d recovering=%d quarantined=%d\n",
			st.Enabled, st.Restored, len(st.Recovering), len(st.Quarantined))
		for _, name := range st.Recovering {
			fmt.Printf("  recovering %s\n", name)
		}
		for _, q := range st.Quarantined {
			entry := ""
			if q.Line != "" {
				entry = fmt.Sprintf(" entry %d %q", q.Index, q.Line)
			}
			fmt.Printf("  quarantined %s after %d restart(s)%s: %s\n", q.Tenant, q.Restarts, entry, q.Reason)
		}
	}
	if metrics {
		m, err := c.Metrics()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvctl:", err)
			os.Exit(1)
		}
		fmt.Print(telemetry.FormatSnapshot(m))
	}
}
