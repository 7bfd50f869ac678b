package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// startServer runs a server over a loopback listener and returns its
// address. The server is shut down at test cleanup.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	})
	return srv, ln.Addr().String()
}

func echoConfig() Config {
	return Config{NewRunner: func(string, uint64) (Runner, error) { return &fakeRunner{}, nil }}
}

func TestServerEndToEnd(t *testing.T) {
	srv, addr := startServer(t, echoConfig())
	c, err := Dial(addr, "lab")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Run("ping 192.168.0.2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != "ran:ping 192.168.0.2\n" || resp.Error != "" || resp.Cwd != "/" {
		t.Fatalf("result = %+v", resp)
	}
	h, err := c.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Live || !h.Ready || len(h.Tenants) != 1 || h.Tenants[0].Name != "lab" {
		t.Fatalf("healthz = %+v", h)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["serve.commands.total"] != 1 || m["serve.tenants.created"] != 1 {
		t.Fatalf("metrics = %v", m)
	}
	if got := srv.MetricsSnapshot()["serve.sessions.opened"]; got != 1 {
		t.Fatalf("sessions.opened = %v", got)
	}
}

func TestServerRequiresHelloForCommands(t *testing.T) {
	_, addr := startServer(t, echoConfig())
	c, err := Dial(addr, "") // probe client: no hello
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Run("ping")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != TypeError || resp.Code != CodeBadRequest {
		t.Fatalf("command before hello = %+v, want bad-request error", resp)
	}
	// Garbage on the wire gets a typed error, not a dropped session.
	if _, err := c.conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if !c.sc.Scan() {
		t.Fatal("session died on a malformed line")
	}
	var r Response
	if err := json.Unmarshal(c.sc.Bytes(), &r); err != nil || r.Code != CodeBadRequest {
		t.Fatalf("malformed line response = %+v (%v)", r, err)
	}
}

// TestWireLineBound pins maxLine, the one limit on a wire line now that
// both ends' scanners start small and grow on demand: a line just under
// the bound arrives whole in either direction, and a request over it
// ends the session.
func TestWireLineBound(t *testing.T) {
	const prefix, suffix = `{"type":"cmd","id":1,"line":"`, `"}`
	// request returns a cmd line of n bytes, newline excluded; its
	// command is n-len(prefix)-len(suffix) bytes long.
	request := func(n int) string {
		return prefix + strings.Repeat("x", n-len(prefix)-len(suffix)) + suffix + "\n"
	}
	cmdLen := maxLine - 1 - len(prefix) - len(suffix)

	cfg := Config{NewRunner: func(string, uint64) (Runner, error) {
		return &fakeRunner{fn: func(line string) (string, error) { return strconv.Itoa(len(line)), nil }}, nil
	}}
	_, addr := startServer(t, cfg)
	c, err := Dial(addr, "lab")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.conn.Write([]byte(request(maxLine - 1))); err != nil {
		t.Fatal(err)
	}
	if !c.sc.Scan() {
		t.Fatalf("session ended on a %d-byte line: %v", maxLine-1, c.sc.Err())
	}
	var r Response
	if err := json.Unmarshal(c.sc.Bytes(), &r); err != nil || r.Output != strconv.Itoa(cmdLen) {
		t.Fatalf("response to a %d-byte line = %+v (%v), want output %d", maxLine-1, r, err, cmdLen)
	}
	// The write may fail part-way: the server stops reading at the bound.
	c.conn.Write([]byte(request(maxLine + 1)))
	if c.sc.Scan() {
		t.Fatalf("session survived a %d-byte line: got %s", maxLine+1, c.sc.Bytes())
	}

	// The client's reader takes a response line just under the bound.
	cli, peer := net.Pipe()
	defer cli.Close()
	output := strings.Repeat("y", maxLine-1-len(`{"type":"result","id":1,"output":""}`))
	go func() {
		defer peer.Close()
		if _, err := bufio.NewReader(peer).ReadBytes('\n'); err != nil {
			return
		}
		peer.Write([]byte(`{"type":"result","id":1,"output":"` + output + `"}` + "\n"))
	}()
	pc, err := NewClient(cli, "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := pc.Run("x")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != output {
		t.Fatalf("client read %d output bytes, want %d", len(resp.Output), len(output))
	}
}

func TestServerTenantCap(t *testing.T) {
	cfg := echoConfig()
	cfg.MaxTenants = 1
	_, addr := startServer(t, cfg)
	c1, err := Dial(addr, "first")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := Dial(addr, "second"); err == nil || !strings.Contains(err.Error(), CodeTooManyTenants) {
		t.Fatalf("second tenant admitted past the cap: %v", err)
	}
	// Re-attaching to the existing tenant is always fine.
	c2, err := Dial(addr, "first")
	if err != nil {
		t.Fatalf("re-attach to existing tenant: %v", err)
	}
	c2.Close()
}

func TestServerIdleTimeout(t *testing.T) {
	cfg := echoConfig()
	cfg.IdleTimeout = 120 * time.Millisecond
	_, addr := startServer(t, cfg)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dec := json.NewDecoder(conn)
	var resp Response
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("idle session got no goodbye: %v", err)
	}
	if resp.Type != TypeBye || resp.Reason != "idle timeout" {
		t.Fatalf("idle response = %+v", resp)
	}
}

func TestServerEdgeRetryAbsorbsRateLimit(t *testing.T) {
	cfg := echoConfig()
	cfg.RatePerSec = 20 // one token every 50ms
	cfg.Burst = 1
	srv, addr := startServer(t, cfg)
	c, err := Dial(addr, "lab")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Burst 1: the second command needs the edge's backoff-and-retry to
	// find a refilled token instead of bouncing to the operator.
	for i := 0; i < 2; i++ {
		resp, err := c.Run("cmd")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Error != "" {
			t.Fatalf("command %d failed: %+v", i, resp)
		}
	}
	if srv.MetricsSnapshot()["serve.edge.retries"] == 0 {
		t.Fatal("edge retry loop never engaged")
	}
}

func TestServerDrainSaysGoodbye(t *testing.T) {
	srv, err := New(echoConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	c, err := Dial(ln.Addr().String(), "lab")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run("warm"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after drain = %v", err)
	}
	// The parked session was woken and dismissed with a goodbye.
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if !c.sc.Scan() {
		t.Fatal("drained session got no goodbye")
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil || resp.Type != TypeBye {
		t.Fatalf("drain push = %s (%v)", c.sc.Bytes(), err)
	}
	h := srv.Healthz()
	if h.Ready || !h.Draining {
		t.Fatalf("healthz after drain = %+v", h)
	}
	snap := srv.MetricsSnapshot()
	if snap["serve.drain.clean"] != 1 || snap["serve.tenants.active"] != 0 {
		t.Fatalf("drain metrics = %v", snap)
	}
	// New connections are turned away politely.
	if _, err := Dial(ln.Addr().String(), "late"); err == nil {
		t.Fatal("drained server accepted a new tenant")
	}
}
