package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"

	"liteview/internal/core"
)

// The wire protocol is newline-delimited JSON, one message per line,
// symmetric request/response over a plain TCP stream:
//
//	→ {"type":"hello","tenant":"lab-a"}
//	← {"type":"hello-ok","tenant":"lab-a"}
//	→ {"type":"cmd","id":1,"line":"cd 192.168.0.1"}
//	← {"type":"result","id":1,"cwd":"/sn01/192.168.0.1"}
//	→ {"type":"cmd","id":2,"line":"ping 192.168.0.3"}
//	← {"type":"result","id":2,"output":"Pinging ...","cwd":"/sn01/192.168.0.1"}
//	← {"type":"bye","reason":"draining"}          (server push)
//
// healthz and metrics requests work before hello (no tenant needed), so
// probes stay cheap. Errors carry a stable machine-readable code plus a
// transient flag that tells the client whether backing off and retrying
// can help.

// Message type tags.
const (
	TypeHello    = "hello"
	TypeHelloOK  = "hello-ok"
	TypeCmd      = "cmd"
	TypeResult   = "result"
	TypeHealthz  = "healthz"
	TypeMetrics  = "metrics"
	TypeBye      = "bye"
	TypeError    = "error"
	TypeWatch    = "watch"     // start streaming telemetry frames
	TypeWatchOK  = "watch-ok"  // watch accepted, frames follow
	TypeEvent    = "event"     // one streamed telemetry frame (server push)
	TypeUnwatch  = "unwatch"   // stop the stream
	TypeWatchEnd = "watch-end" // stream over (unwatch, drain, or error)
	TypeRecovery = "recovery"  // crash-recovery status (and quarantine clearing)
)

// WatchSpec filters and bounds one telemetry watch stream. The zero
// value streams everything at the default depth and rate.
type WatchSpec struct {
	// Node/Layer/Kind/Link/Span mirror telemetry.Filter.
	Node  uint64 `json:"node,omitempty"`
	Layer string `json:"layer,omitempty"`
	Kind  string `json:"kind,omitempty"`
	Link  string `json:"link,omitempty"`
	Span  uint64 `json:"span,omitempty"`
	// Depth is the subscriber ring size (0 = default). A consumer that
	// falls behind loses the oldest frames; the drop count rides along
	// on event frames.
	Depth int `json:"depth,omitempty"`
	// MaxPerSec caps streamed frames per second (0 = server default).
	MaxPerSec int `json:"max_per_sec,omitempty"`
	// ForMs ends the stream server-side after this many wall-clock
	// milliseconds (0 = until unwatch/disconnect/drain). Server-side so
	// an idle stream still terminates even when no frame ever arrives
	// to prompt the client.
	ForMs int64 `json:"for_ms,omitempty"`
}

// Request is one client→server message.
type Request struct {
	Type   string     `json:"type"`
	Tenant string     `json:"tenant,omitempty"` // hello
	ID     uint64     `json:"id,omitempty"`     // cmd
	Line   string     `json:"line,omitempty"`   // cmd
	Watch  *WatchSpec `json:"watch,omitempty"`  // watch
	Clear  string     `json:"clear,omitempty"`  // recovery: lift this tenant's quarantine
}

// Response is one server→client message.
type Response struct {
	Type      string             `json:"type"`
	ID        uint64             `json:"id,omitempty"`
	Tenant    string             `json:"tenant,omitempty"`
	Output    string             `json:"output,omitempty"`
	Cwd       string             `json:"cwd,omitempty"`
	Error     string             `json:"error,omitempty"`
	Code      string             `json:"code,omitempty"`
	Transient bool               `json:"transient,omitempty"`
	Health    *Health            `json:"health,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Reason    string             `json:"reason,omitempty"` // bye, watch-end
	// Event is one telemetry frame in the JSONL line format (see
	// telemetry.JSONLine), carried as a string so the hand-rolled
	// byte-stable encoding survives the wire untouched.
	Event string `json:"event,omitempty"`
	// Dropped is the cumulative count of frames lost to the subscriber
	// ring when the stream (or its reader) fell behind.
	Dropped uint64 `json:"dropped,omitempty"`
	// Recovery answers a recovery request.
	Recovery *RecoveryStatus `json:"recovery,omitempty"`
}

// RecoveryStatus is the supervisor's wire-visible state.
type RecoveryStatus struct {
	// Enabled is true when the daemon journals commands (-journal).
	Enabled bool `json:"enabled"`
	// Restored counts tenants resurrected at startup (-recover).
	Restored int `json:"restored,omitempty"`
	// Recovering lists tenants currently mid-replay.
	Recovering []string `json:"recovering,omitempty"`
	// Quarantined lists tenants the supervisor gave up on.
	Quarantined []QuarantineInfo `json:"quarantined,omitempty"`
}

// QuarantineInfo names a quarantined tenant and, when the crash was a
// deterministically-poisonous journaled command, the offending entry.
type QuarantineInfo struct {
	Tenant string `json:"tenant"`
	// Index/Line identify the poison journal entry (Line empty when the
	// quarantine came from a build or journal failure instead).
	Index    uint64 `json:"index,omitempty"`
	Line     string `json:"line,omitempty"`
	Reason   string `json:"reason"`
	Restarts int    `json:"restarts"`
}

// Health is the /healthz-style liveness and readiness report.
type Health struct {
	// Live is true as long as the daemon answers at all.
	Live bool `json:"live"`
	// Ready is true when the daemon accepts new sessions and commands
	// (false while draining or before the listener is up).
	Ready    bool         `json:"ready"`
	Draining bool         `json:"draining"`
	Sessions int          `json:"sessions"`
	Tenants  []TenantInfo `json:"tenants,omitempty"`
	// Quarantined lists tenants the crash-recovery supervisor gave up
	// on; they refuse hellos until cleared.
	Quarantined []QuarantineInfo `json:"quarantined,omitempty"`
	UptimeMs    int64            `json:"uptime_ms"`
}

// Stable error codes for the wire. See errCode.
const (
	CodeQueueFull      = "queue-full"
	CodeRateLimited    = "rate-limited"
	CodeBreakerOpen    = "breaker-open"
	CodeDeadline       = "deadline"
	CodeTenantCrashed  = "tenant-crashed"
	CodeTenantDead     = "tenant-dead"
	CodeDraining       = "draining"
	CodeTooManyTenants = "too-many-tenants"
	CodeBadRequest     = "bad-request"
	CodeCommand        = "command"
	CodeRecovering     = "recovering"
	CodeQuarantined    = "quarantined"
	CodePoison         = "poison-command"
)

// errCode maps a service or command error to its wire code and whether
// a client retry (with backoff) is worthwhile.
func errCode(err error) (code string, transient bool) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return CodeQueueFull, true
	case errors.Is(err, ErrRateLimited):
		return CodeRateLimited, true
	case errors.Is(err, ErrDeadline):
		return CodeDeadline, true
	case errors.Is(err, ErrTenantCrashed):
		return CodeTenantCrashed, false
	case errors.Is(err, ErrTenantRecovering):
		return CodeRecovering, true
	case errors.Is(err, ErrPoisonCommand):
		return CodePoison, false
	case errors.Is(err, ErrTenantQuarantined):
		return CodeQuarantined, false
	case errors.Is(err, ErrTenantDead):
		return CodeTenantDead, false
	case errors.Is(err, ErrDraining):
		return CodeDraining, false
	case errors.Is(err, ErrTooManyTenants):
		return CodeTooManyTenants, false
	case errors.Is(err, core.ErrBreakerOpen):
		return CodeBreakerOpen, true
	case core.Transient(err):
		return CodeCommand, true
	default:
		return CodeCommand, false
	}
}

// maxLine bounds one wire message (either direction): big enough for a
// full healthcheck transcript, small enough to stop a rogue peer from
// ballooning the session buffer.
const maxLine = 4 << 20

// newLineScanner builds the line reader both ends of the wire use. Its
// buffer starts at bufio's default size and grows to maxLine only when
// a line needs it, so a session of short commands stays small.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return sc
}

// Client is a minimal wire-protocol client used by cmd/lvctl and the
// service tests. It is synchronous: one request, one response. Not safe
// for concurrent use.
type Client struct {
	conn net.Conn
	enc  *json.Encoder
	sc   *bufio.Scanner
	next uint64
}

// RejectedError is a server rejection carried back to the caller with
// its wire code and transient flag intact, so retry loops (WatchRetry,
// recovery-aware clients) can tell "back off and retry" from "stop".
type RejectedError struct {
	Op        string // "hello", "watch"
	Code      string
	Msg       string
	Transient bool
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("serve: %s rejected: %s (%s)", e.Op, e.Msg, e.Code)
}

// NewClient speaks the protocol over an established connection,
// attaching to the named tenant when tenant is non-empty. A server-side
// hello rejection comes back as a *RejectedError.
func NewClient(conn net.Conn, tenant string) (*Client, error) {
	c := &Client{conn: conn, enc: json.NewEncoder(conn), sc: newLineScanner(conn)}
	if tenant == "" {
		return c, nil
	}
	resp, err := c.do(Request{Type: TypeHello, Tenant: tenant})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if resp.Type != TypeHelloOK {
		conn.Close()
		return nil, &RejectedError{Op: "hello", Code: resp.Code, Msg: resp.Error, Transient: resp.Transient}
	}
	return c, nil
}

// Dial connects to a daemon and attaches to tenant (may be empty for
// probe-only clients).
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, tenant)
}

// do sends one request and reads one response.
func (c *Client) do(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("serve: send: %w", err)
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Response{}, fmt.Errorf("serve: read: %w", err)
		}
		return Response{}, fmt.Errorf("serve: server closed the connection")
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return Response{}, fmt.Errorf("serve: bad response: %w", err)
	}
	return resp, nil
}

// Run executes one command line on the attached tenant. The Response
// carries output (possibly partial), the session cwd, and any error
// text with its code; err is non-nil only for transport-level failures
// or a server goodbye.
func (c *Client) Run(line string) (Response, error) {
	c.next++
	resp, err := c.do(Request{Type: TypeCmd, ID: c.next, Line: line})
	if err != nil {
		return resp, err
	}
	if resp.Type == TypeBye {
		return resp, fmt.Errorf("serve: server said goodbye: %s", resp.Reason)
	}
	if resp.ID != c.next {
		return resp, fmt.Errorf("serve: response id %d for request %d", resp.ID, c.next)
	}
	return resp, nil
}

// Healthz asks for the liveness/readiness report.
func (c *Client) Healthz() (Health, error) {
	resp, err := c.do(Request{Type: TypeHealthz})
	if err != nil {
		return Health{}, err
	}
	if resp.Health == nil {
		return Health{}, errors.New("serve: healthz response lacked a health block")
	}
	return *resp.Health, nil
}

// Metrics asks for a snapshot of the service metrics registry.
func (c *Client) Metrics() (map[string]float64, error) {
	resp, err := c.do(Request{Type: TypeMetrics})
	if err != nil {
		return nil, err
	}
	return resp.Metrics, nil
}

// Watch streams filtered telemetry frames from the attached tenant,
// calling fn for each frame with the JSONL-encoded event line and the
// cumulative count of frames dropped server-side. Watch dedicates the
// connection: it blocks until fn returns false (the client then sends
// unwatch and drains to watch-end), the server ends the stream (drain,
// shutdown), or the transport fails.
func (c *Client) Watch(spec WatchSpec, fn func(line string, dropped uint64) bool) error {
	c.next++
	id := c.next
	if err := c.enc.Encode(Request{Type: TypeWatch, ID: id, Watch: &spec}); err != nil {
		return fmt.Errorf("serve: send watch: %w", err)
	}
	stopping := false
	for c.sc.Scan() {
		var resp Response
		if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
			return fmt.Errorf("serve: bad response: %w", err)
		}
		switch resp.Type {
		case TypeWatchOK:
			// Stream accepted; frames follow.
		case TypeEvent:
			if stopping {
				continue // draining buffered frames after unwatch
			}
			if !fn(resp.Event, resp.Dropped) {
				stopping = true
				if err := c.enc.Encode(Request{Type: TypeUnwatch, ID: id}); err != nil {
					return fmt.Errorf("serve: send unwatch: %w", err)
				}
			}
		case TypeWatchEnd:
			if resp.Reason == "draining" {
				// The daemon is going down, not the stream's natural end:
				// surface it typed so reconnect loops can resume after the
				// restart instead of reporting success.
				return fmt.Errorf("serve: watch ended: %w", ErrDraining)
			}
			return nil
		case TypeBye:
			return fmt.Errorf("serve: server said goodbye: %s", resp.Reason)
		case TypeError:
			return &RejectedError{Op: "watch", Code: resp.Code, Msg: resp.Error, Transient: resp.Transient}
		}
	}
	if err := c.sc.Err(); err != nil {
		return fmt.Errorf("serve: read: %w", err)
	}
	return fmt.Errorf("serve: server closed the connection")
}

// Recovery asks for the daemon's crash-recovery status. A non-empty
// clear first lifts that tenant's quarantine (resurrecting it from the
// truncated journal).
func (c *Client) Recovery(clear string) (RecoveryStatus, error) {
	resp, err := c.do(Request{Type: TypeRecovery, Clear: clear})
	if err != nil {
		return RecoveryStatus{}, err
	}
	if resp.Type == TypeError {
		return RecoveryStatus{}, fmt.Errorf("serve: recovery request failed: %s (%s)", resp.Error, resp.Code)
	}
	if resp.Recovery == nil {
		return RecoveryStatus{}, errors.New("serve: recovery response lacked a status block")
	}
	return *resp.Recovery, nil
}

// Close says goodbye and closes the connection.
func (c *Client) Close() error {
	c.enc.Encode(Request{Type: TypeBye}) // best effort
	return c.conn.Close()
}
