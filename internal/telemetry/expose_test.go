package telemetry

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("served_total", "x").Add(9)
	obs, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + obs.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "served_total 9") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars = %d (body %d bytes)", code, len(body))
	}
	code, body = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d (body %d bytes)", code, len(body))
	}
	if code, _ = get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", code)
	}

	// Shutdown drains the listener: subsequent scrapes must fail.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := obs.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + obs.Addr().String() + "/metrics"); err == nil {
		t.Error("scrape after Shutdown succeeded, want connection refusal")
	}
}

func TestEscapingHostileStrings(t *testing.T) {
	r := NewRegistry()
	// HELP text with a backslash and a newline must come out as the two
	// v0.0.4 escapes, keeping the exposition single-line-per-record.
	r.NewCounter("hostile_total", "path C:\\tmp\nsecond line")
	vec := r.NewCounterVec("hostile_vec_total", "labeled", "client")
	vec.With("a\\b\"c\nd\te").Inc()
	hv := r.NewHistogramVec("hostile_hist_seconds", "hist", "stage", []float64{1})
	hv.With("q\"s\\t\n").Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP hostile_total path C:\\tmp\nsecond line`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	// Label values escape exactly \ " and newline; the tab stays raw —
	// %q-style \t renders a line the Prometheus parser rejects.
	if !strings.Contains(out, `hostile_vec_total{client="a\\b\"c\nd`+"\t"+`e"} 1`) {
		t.Errorf("counter vec label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `hostile_hist_seconds_bucket{stage="q\"s\\t\n",le="1"} 1`) {
		t.Errorf("histogram vec label not escaped:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# HELP") && strings.Count(line, " ") < 3 && len(line) > 0 {
			t.Errorf("suspicious HELP line: %q", line)
		}
	}
}

func TestExemplarsOnlyInOpenMetrics(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("ex_seconds", "x", []float64{1, 10})
	h.Observe(0.5)
	h.ObserveExemplar(5, "00112233445566778899aabbccddeeff")

	var classic bytes.Buffer
	if err := r.WriteText(&classic); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(classic.String(), "trace_id") {
		t.Errorf("v0.0.4 output leaked exemplars:\n%s", classic.String())
	}

	var om bytes.Buffer
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	out := om.String()
	if !strings.Contains(out, `ex_seconds_bucket{le="10"} 2 # {trace_id="00112233445566778899aabbccddeeff"} 5`) {
		t.Errorf("exemplar annotation missing:\n%s", out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics output missing # EOF terminator")
	}
	if e := h.ex[h.bucketIndex(5)].Load(); e == nil || e.ref != "00112233445566778899aabbccddeeff" || e.value != 5 {
		t.Errorf("exemplar in the bucket of 5 = %+v", e)
	}
	if e := h.ex[h.bucketIndex(0.5)].Load(); e != nil {
		t.Errorf("bucket without exemplar holds %+v", e)
	}
}

func TestMetricsHandlerNegotiatesExemplars(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("neg_seconds", "x", []float64{1}).ObserveExemplar(0.5, "ff00")
	obs, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	base := "http://" + obs.Addr().String() + "/metrics"

	resp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "trace_id") {
		t.Error("plain GET returned exemplars")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "0.0.4") {
		t.Errorf("plain Content-Type = %q", ct)
	}

	req, _ := http.NewRequest("GET", base, nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `# {trace_id="ff00"} 0.5`) {
		t.Errorf("OpenMetrics negotiation missing exemplar:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics") {
		t.Errorf("negotiated Content-Type = %q", ct)
	}
}

func TestWriteTextPropagatesError(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "x")
	if err := r.WriteText(failWriter{}); err == nil {
		t.Error("want write error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestSetupLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	logger := SetupLoggerWriter(&buf, false)
	logger.Debug("hidden")
	logger.Info("shown")
	if out := buf.String(); strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Errorf("info-level output: %q", out)
	}
	buf.Reset()
	logger = SetupLoggerWriter(&buf, true)
	logger.Debug("now visible")
	if !strings.Contains(buf.String(), "now visible") {
		t.Errorf("verbose output: %q", buf.String())
	}
}

func TestStartProgressLogsAndStops(t *testing.T) {
	var mu lockedBuffer
	logger := slog.New(slog.NewTextHandler(&mu, &slog.HandlerOptions{Level: slog.LevelDebug}))
	stop := StartProgress(logger, 10*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for mu.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	out := mu.String()
	if !strings.Contains(out, "progress") || !strings.Contains(out, "slices_per_sec") {
		t.Errorf("progress output: %q", out)
	}
}

// lockedBuffer is a goroutine-safe bytes.Buffer for the progress test.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
