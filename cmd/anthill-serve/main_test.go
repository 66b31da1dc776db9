package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestParseDilation covers the flag's accepted and rejected forms.
func TestParseDilation(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"100x", 100, true}, {"100", 100, true}, {" 2.5x ", 2.5, true},
		{"0", 0, false}, {"-3x", 0, false}, {"fast", 0, false}, {"", 0, false},
	} {
		got, err := parseDilation(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseDilation(%q) = (%g, %v), want (%g, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestCheckInterval covers the -tick-ms and -frame-ms values accepted and
// rejected before the listener opens.
func TestCheckInterval(t *testing.T) {
	for _, tc := range []struct {
		ms float64
		ok bool
	}{
		{50, true}, {0.5, true},
		{0, false}, {-1, false}, {math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		for _, name := range []string{"tick-ms", "frame-ms"} {
			if err := checkInterval(name, tc.ms); (err == nil) != tc.ok {
				t.Errorf("checkInterval(%q, %g) = %v, want ok=%v", name, tc.ms, err, tc.ok)
			}
		}
	}
}

// TestServeSmoke is the end-to-end gate behind `make serve-smoke`: build
// the binary, start it on a short trace-driven schedule at low dilation,
// poll /healthz, assert /metrics parses and carries the expected families,
// read one SSE frame and the event log, then SIGTERM and require exit 0.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("exec-based smoke test")
	}
	bin := filepath.Join(t.TempDir(), "anthill-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-arrivals", "uniform:rate=2000,n=300",
		"-dilation", "4x",
		"-tick-ms", "5",
		"-frame-ms", "20",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "anthill-serve: listening on "); ok {
			base = rest
			break
		}
	}
	if base == "" {
		t.Fatalf("server never announced its address: %v", sc.Err())
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (string, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, b)
		}
		return string(b), nil
	}

	// Poll /healthz until the server responds ok.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, err := get("/healthz")
		if err == nil {
			var h struct {
				OK bool `json:"ok"`
			}
			if jerr := json.Unmarshal([]byte(body), &h); jerr != nil || !h.OK {
				t.Fatalf("unhealthy: %s (%v)", body, jerr)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never came up: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// /metrics must expose the serving families and parse line by line.
	metrics, err := get("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"# TYPE anthill_serve_requests_total counter",
		"# TYPE anthill_serve_latency_window_seconds gauge",
		"# TYPE anthill_serve_queue_depth gauge",
		"anthill_serve_virtual_seconds",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	for _, line := range strings.Split(metrics, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if sp := strings.LastIndexByte(line, ' '); sp < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
	}

	// One SSE frame must arrive and decode as a serve.Frame payload.
	req, _ := http.NewRequest("GET", base+"/stream", nil)
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	frameLine, err := bufio.NewReader(resp.Body).ReadString('\n')
	resp.Body.Close()
	if err != nil {
		t.Fatalf("no SSE frame: %v", err)
	}
	data, ok := strings.CutPrefix(strings.TrimSpace(frameLine), "data: ")
	if !ok {
		t.Fatalf("unexpected SSE line %q", frameLine)
	}
	var frame struct {
		Pipes []struct {
			Policy string `json:"policy"`
		} `json:"pipes"`
	}
	if err := json.Unmarshal([]byte(data), &frame); err != nil {
		t.Fatalf("bad SSE frame %q: %v", data, err)
	}
	if len(frame.Pipes) != 3 {
		t.Fatalf("SSE frame has %d pipes, want 3", len(frame.Pipes))
	}

	if _, err := get("/events.jsonl"); err != nil {
		t.Fatal(err)
	}
	if _, err := get("/"); err != nil {
		t.Fatal(err)
	}
	if _, err := get("/debug/pprof/cmdline"); err != nil {
		t.Fatal(err)
	}

	// Clean shutdown: SIGTERM must exit 0 promptly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit within 10s of SIGTERM")
	}
}
