package exps

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"embsan/internal/obs"
	"embsan/internal/obs/timeline"
)

// TestMonitorEndpoints drives the full `embsan monitor` surface headless
// (this is what `make monitor-check` runs): subscribe to the SSE stream,
// run a monitored campaign set, then verify the scrape, the status page
// and the artifact downloads — and that the served EMTL is byte-identical
// to an offline run of the same options, the monitor's core contract.
func TestMonitorEndpoints(t *testing.T) {
	fws := buildSubset(t, "InfiniTime")
	opts := CampaignOptions{
		Execs: 200, Seed: 3, Workers: 2, Repeats: 2,
		TimelineInterval: 20_000, StallSamples: 4,
	}

	m := NewMonitor()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	// Attach an SSE client before the run starts so it sees live events.
	sseEvents := make(chan string, 1024)
	sseReq, err := http.NewRequest("GET", srv.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	go func() {
		defer close(sseEvents)
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				sseEvents <- strings.TrimPrefix(line, "event: ")
			}
		}
	}()

	run, err := RunMonitor(fws, opts, m)
	if err != nil {
		t.Fatal(err)
	}

	// Drain the SSE stream: the server closes it after "done".
	counts := map[string]int{}
	timeout := time.After(10 * time.Second)
	for {
		var ev string
		var ok bool
		select {
		case ev, ok = <-sseEvents:
		case <-timeout:
			t.Fatal("SSE stream did not finish")
		}
		if !ok {
			break
		}
		counts[ev]++
	}
	if counts["sample"] == 0 {
		t.Error("SSE stream carried no sample events")
	}
	if counts["campaign"] != len(run.Campaigns) {
		t.Errorf("SSE stream carried %d campaign events for %d campaigns",
			counts["campaign"], len(run.Campaigns))
	}
	if counts["done"] != 1 {
		t.Errorf("SSE stream carried %d done events", counts["done"])
	}

	get := func(path string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}

	// /metrics: a parseable OpenMetrics scrape with the live gauges.
	code, ctype, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(ctype, "openmetrics-text") {
		t.Errorf("/metrics: code %d type %q", code, ctype)
	}
	if !bytes.HasSuffix(body, []byte("# EOF\n")) {
		t.Error("/metrics missing # EOF terminator")
	}
	for _, want := range []string{"monitor_samples_total", "monitor_campaign_0_execs", "monitor_campaigns_total"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %s:\n%s", want, body)
		}
	}

	// Status page carries the finished stats table.
	code, _, body = get("/")
	if code != http.StatusOK || !bytes.Contains(body, []byte("finished")) {
		t.Errorf("/: code %d body %q", code, body)
	}
	if !bytes.Contains(body, []byte("InfiniTime")) {
		t.Error("/ missing the stats table")
	}

	// /timeline.emtl: decodes, and byte-equals an offline run of the very
	// same options with no monitor attached — liveness is a view.
	code, _, emtl := get("/timeline.emtl")
	if code != http.StatusOK {
		t.Fatalf("/timeline.emtl: code %d", code)
	}
	jobs, err := timeline.Decode(emtl)
	if err != nil {
		t.Fatalf("served EMTL does not decode: %v", err)
	}
	if len(jobs) != len(run.Campaigns) {
		t.Errorf("served EMTL has %d jobs for %d campaigns", len(jobs), len(run.Campaigns))
	}
	offOpts := opts
	offOpts.Timeline = true
	offOpts.Monitor = nil
	offOpts.Workers = 1 // different worker count on purpose
	offline, err := RunCampaignSet(fws, offOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(emtl, timeline.Encode(JobTimelines(offline.Campaigns))) {
		t.Error("served EMTL diverged from an offline run of the same options")
	}

	// /trace.json: a valid Chrome counter trace.
	code, ctype, trace := get("/trace.json")
	if code != http.StatusOK || !strings.Contains(ctype, "json") {
		t.Errorf("/trace.json: code %d type %q", code, ctype)
	}
	if err := obs.ValidateChrome(trace); err != nil {
		t.Errorf("/trace.json invalid: %v", err)
	}

	// Unknown paths 404.
	if code, _, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: code %d, want 404", code)
	}

	// A late SSE subscriber immediately learns the run is done.
	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	late, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(late, []byte("event: done")) {
		t.Errorf("late subscriber missed the done event: %q", late)
	}
}

// TestMonitorArtifactsGatedUntilDone: artifact endpoints 503 while the
// set is (notionally) still running.
func TestMonitorArtifactsGatedUntilDone(t *testing.T) {
	m := NewMonitor()
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	for _, path := range []string{"/timeline.emtl", "/trace.json"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s before Finish: code %d, want 503", path, resp.StatusCode)
		}
	}
	m.Finish([]byte("EMTL"), []byte("{}"), "stats")
	resp, err := http.Get(srv.URL + "/timeline.emtl")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, []byte("EMTL")) {
		t.Errorf("sealed artifact not served: code %d body %q", resp.StatusCode, body)
	}
}

// parkedWriter is an SSE ResponseWriter whose first Write parks until
// released, like a client that stopped reading.
type parkedWriter struct {
	hdr     http.Header
	once    sync.Once
	parked  chan struct{}
	release chan struct{}
	body    bytes.Buffer
}

func (w *parkedWriter) Header() http.Header { return w.hdr }
func (w *parkedWriter) WriteHeader(int)     {}
func (w *parkedWriter) Flush()              {}
func (w *parkedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.parked)
		<-w.release
	})
	return w.body.Write(p)
}

// TestMonitorEventsEndWhenDoneDropped: a stream whose queue overflowed
// while its writer was parked lost the published events past its buffer,
// yet it still ends with "done" once Finish has run.
func TestMonitorEventsEndWhenDoneDropped(t *testing.T) {
	m := NewMonitor()
	w := &parkedWriter{hdr: http.Header{}, parked: make(chan struct{}), release: make(chan struct{})}
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		m.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/events", nil))
	}()
	// Publish until the handler has subscribed and parked on its first event.
	for parked := false; !parked; {
		m.publishSample(0, "fw", timeline.Sample{})
		select {
		case <-w.parked:
			parked = true
		case <-time.After(time.Millisecond):
		}
	}
	for i := 0; i < 300; i++ {
		m.publishSample(0, "fw", timeline.Sample{})
	}
	m.Finish(nil, nil, "")
	close(w.release)
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("/events still open 5 s after Finish")
	}
	if !strings.HasSuffix(w.body.String(), "event: done\ndata: {\"type\":\"done\",\"campaign\":0}\n\n") {
		t.Errorf("stream did not end with done: ...%q", w.body.String()[max(0, w.body.Len()-80):])
	}
}
