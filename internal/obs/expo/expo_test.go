package expo

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vacsem/internal/obs"
)

// testOptions wires a handler to a private registry and hub so tests
// never race the process-wide defaults.
func testOptions(t *testing.T) (Options, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	return Options{Registry: reg, Hub: obs.NewHub()}, reg
}

func TestMetricsEndpoint(t *testing.T) {
	opt, reg := testOptions(t)
	reg.Counter("counter.decisions").Add(77)
	srv := httptest.NewServer(NewHandler(opt))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "vacsem_counter_decisions 77") {
		t.Errorf("exposition missing prefixed counter:\n%s", body)
	}
	if !strings.Contains(string(body), "# TYPE vacsem_counter_decisions counter") {
		t.Errorf("exposition missing TYPE line:\n%s", body)
	}
}

// The progress endpoint streams the process's event lines as NDJSON,
// opening with a bare stream_open line.
func TestProgressStreamNDJSON(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Options{Registry: obs.NewRegistry()}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vacsem/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no stream_open line")
	}
	var open map[string]any
	if err := json.Unmarshal(sc.Bytes(), &open); err != nil {
		t.Fatalf("stream_open not JSON: %v (%q)", err, sc.Text())
	}
	if sc.Text() != `{"ev":"stream_open"}` {
		t.Fatalf("first line = %q, want the bare stream_open event", sc.Text())
	}

	// Wait for the subscription to land before emitting, then the
	// event of any run must arrive on the stream.
	deadline := time.Now().Add(2 * time.Second)
	for !obs.Stream.Active() {
		if time.Now().After(deadline) {
			t.Fatal("handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	obs.Event(obs.WithRun(context.Background(), 5), "progress", obs.Fields{"index": 4})
	if !sc.Scan() {
		t.Fatal("no event line after emitting")
	}
	var ev map[string]any
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatalf("event not JSON: %v", err)
	}
	if ev["ev"] != "progress" || ev["index"].(float64) != 4 || ev["run_id"].(float64) != 5 {
		t.Errorf("event = %v", ev)
	}
}

// With Accept: text/event-stream the same endpoint speaks SSE.
func TestProgressStreamSSE(t *testing.T) {
	opt, _ := testOptions(t)
	srv := httptest.NewServer(NewHandler(opt))
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/debug/vacsem/progress", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first SSE line")
	}
	line := sc.Text()
	if !strings.HasPrefix(line, "data: ") {
		t.Fatalf("SSE line %q lacks data: prefix", line)
	}
	var open map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &open); err != nil {
		t.Fatalf("SSE payload not JSON: %v", err)
	}
	if open["ev"] != "stream_open" {
		t.Errorf("first event = %v", open["ev"])
	}
}

func TestIndexAndPprofRoutes(t *testing.T) {
	opt, _ := testOptions(t)
	srv := httptest.NewServer(NewHandler(opt))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "/debug/vacsem/progress") {
		t.Errorf("index missing route listing:\n%s", body)
	}

	// pprof delegates to DefaultServeMux (net/http/pprof registers there).
	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof via introspection mux: status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route: status %d, want 404", resp.StatusCode)
	}
}
