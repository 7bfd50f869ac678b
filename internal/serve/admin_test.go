package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetriczFormats: the admin /metricz endpoint speaks Prometheus
// exposition by default and keeps the legacy "name value" lines behind
// ?format=plain.
func TestMetriczFormats(t *testing.T) {
	srv, addr := startServer(t, echoConfig())
	c, err := Dial(addr, "lab")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run("ls"); err != nil {
		t.Fatal(err)
	}

	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metricz")
	if code != http.StatusOK {
		t.Fatalf("/metricz = %d", code)
	}
	for _, want := range []string{
		"# TYPE serve_commands_total counter",
		"# HELP serve_commands_total",
		"serve_commands_total 1",
		"# TYPE serve_sessions_active gauge",
		"serve_cmd_ms_bucket{le=",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metricz missing %q:\n%s", want, body)
		}
	}
	// Sample lines must use sanitized names (the HELP text may still
	// mention the original dotted name).
	if strings.Contains(body, "\nserve.commands.total ") {
		t.Fatal("Prometheus sample line leaked an unsanitized metric name")
	}

	code, body = get("/metricz?format=plain")
	if code != http.StatusOK {
		t.Fatalf("/metricz?format=plain = %d", code)
	}
	if !strings.Contains(body, "serve.commands.total") {
		t.Fatalf("legacy format lost the dotted names:\n%s", body)
	}
	if strings.Contains(body, "# TYPE") {
		t.Fatalf("legacy format grew Prometheus headers:\n%s", body)
	}
}

// TestStreamzEndToEnd drives the SSE endpoint against a real tenant:
// parameter validation (a link filter that names no two node ids is a
// 400, not a stream that matches nothing), replay of recorded history,
// and the timed end event.
func TestStreamzEndToEnd(t *testing.T) {
	srv, addr := startServer(t, Config{NewRunner: testbedRunner})
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	if resp, err := http.Get(admin.URL + "/streamz"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no tenant parameter = %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(admin.URL + "/streamz?tenant=ghost"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant = %d, want 404 (streamz must never create tenants)", resp.StatusCode)
	}

	c, err := Dial(addr, "sse-lab")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, line := range []string{"trace on", "cd 192.168.0.1", "ping 192.168.0.2"} {
		if resp, err := c.Run(line); err != nil || resp.Error != "" {
			t.Fatalf("%q: err=%v resp.Error=%q", line, err, resp.Error)
		}
	}

	for _, link := range []string{"3", "a-b"} {
		resp, err := http.Get(admin.URL + "/streamz?tenant=sse-lab&for=100ms&link=" + link)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "link") {
			t.Fatalf("link=%s: %d %q, want 400 naming the link", link, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(admin.URL + "/streamz?tenant=sse-lab&replay=25&for=300ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/streamz = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if !strings.Contains(out, "data: {") {
		t.Fatalf("no replayed frames in the stream:\n%s", out)
	}
	if !strings.Contains(out, "event: end\ndata: elapsed") {
		t.Fatalf("stream did not end with the elapsed event:\n%s", out)
	}
}
