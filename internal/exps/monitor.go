package exps

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"embsan/internal/fuzz"
	"embsan/internal/guest/firmware"
	"embsan/internal/obs"
	"embsan/internal/obs/timeline"
)

// Monitor is the wall-clock liveness hub behind `embsan monitor`: campaign
// workers publish timeline samples, plateau/novelty marks, crash findings
// and campaign completions into it as they happen, and HTTP clients read
// them back as an OpenMetrics scrape (/metrics), a server-sent event
// stream (/events) and downloadable artifacts (/timeline.emtl,
// /trace.json).
//
// Everything here is a view. The monitor hangs off the sampler's live
// hooks and the fuzzer's OnCrash callback, which feed nothing back into
// campaign state: the canonical timeline and every campaign outcome stay
// pure functions of (firmware, seed, options), byte-identical with the
// monitor attached or not. That is also why slow subscribers lose events
// (a full channel drops, never blocks a worker) — the artifact downloads,
// not the SSE stream, are the complete record.
type Monitor struct {
	mu   sync.Mutex
	subs map[chan MonitorEvent]struct{}
	reg  *obs.SyncRegistry

	// set by Finish; artifact endpoints serve 503 until then
	emtl  []byte
	trace []byte
	stats string
	done  bool
	// finished is closed by Finish: every /events stream ends on it, even
	// one whose queue was too full to take any more events.
	finished chan struct{}
}

// NewMonitor creates an idle monitor.
func NewMonitor() *Monitor {
	return &Monitor{
		subs:     make(map[chan MonitorEvent]struct{}),
		reg:      obs.NewSyncRegistry(),
		finished: make(chan struct{}),
	}
}

// MonitorEvent is one liveness notification, JSON-encoded onto the SSE
// stream. Type selects which optional field is set: "sample", "mark",
// "crash", "campaign" (one campaign finished) or "done" (the whole set
// finished and the artifacts are downloadable).
type MonitorEvent struct {
	Type     string           `json:"type"`
	Campaign int              `json:"campaign"`
	Firmware string           `json:"firmware,omitempty"`
	Sample   *timeline.Sample `json:"sample,omitempty"`
	Mark     *MonitorMark     `json:"mark,omitempty"`
	Crash    *MonitorCrash    `json:"crash,omitempty"`
	Found    int              `json:"found,omitempty"` // campaign events: bugs found
}

// MonitorMark is a plateau/novelty mark in SSE form.
type MonitorMark struct {
	Kind   string `json:"kind"`
	VClock uint64 `json:"vclock"`
	Value  uint64 `json:"value"`
}

// MonitorCrash is a deduplicated finding in SSE form.
type MonitorCrash struct {
	Signature string `json:"signature"`
	Execs     int    `json:"execs"`
}

// Subscribe registers a liveness listener and returns its event channel
// plus a cancel function. The channel is buffered; events that arrive
// while it is full are dropped for this subscriber. Finish never closes
// it and publishes no "done" event into it: /events writes that itself.
func (m *Monitor) Subscribe() (<-chan MonitorEvent, func()) {
	ch := make(chan MonitorEvent, 256)
	m.mu.Lock()
	m.subs[ch] = struct{}{}
	m.mu.Unlock()
	return ch, func() {
		m.mu.Lock()
		delete(m.subs, ch)
		m.mu.Unlock()
	}
}

// publish fans ev out to every subscriber, dropping for the slow ones.
func (m *Monitor) publish(ev MonitorEvent) {
	m.mu.Lock()
	for ch := range m.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	m.mu.Unlock()
}

func (m *Monitor) publishSample(campaign int, fw string, s timeline.Sample) {
	m.reg.Do(func(r *obs.Registry) {
		r.Counter("monitor.samples").Inc()
		p := fmt.Sprintf("monitor.campaign.%d.", campaign)
		r.Gauge(p + "vclock").Set(int64(s.VClock))
		r.Gauge(p + "execs").Set(int64(s.Execs))
		r.Gauge(p + "cover.blocks").Set(int64(s.CoverBlocks))
		r.Gauge(p + "corpus").Set(int64(s.CorpusSize))
		r.Gauge(p + "found").Set(int64(s.Found))
	})
	sc := s
	m.publish(MonitorEvent{Type: "sample", Campaign: campaign, Firmware: fw, Sample: &sc})
}

func (m *Monitor) publishMark(campaign int, fw string, mk timeline.Mark) {
	m.reg.Do(func(r *obs.Registry) { r.Counter("monitor.marks").Inc() })
	m.publish(MonitorEvent{Type: "mark", Campaign: campaign, Firmware: fw,
		Mark: &MonitorMark{Kind: mk.Kind.String(), VClock: mk.VClock, Value: mk.Value}})
}

func (m *Monitor) publishCrash(campaign int, fw string, c *fuzz.Crash) {
	m.reg.Do(func(r *obs.Registry) { r.Counter("monitor.crashes").Inc() })
	m.publish(MonitorEvent{Type: "crash", Campaign: campaign, Firmware: fw,
		Crash: &MonitorCrash{Signature: c.Signature, Execs: c.Execs}})
}

func (m *Monitor) publishCampaign(campaign int, c *Campaign) {
	m.reg.Do(func(r *obs.Registry) { r.Counter("monitor.campaigns").Inc() })
	m.publish(MonitorEvent{Type: "campaign", Campaign: campaign,
		Firmware: c.Firmware.Name, Found: len(c.Found)})
}

// Finish stores the finished set's canonical artifacts — the EMTL
// timeline, the Chrome counter trace and the formatted stats table — and
// ends every /events stream. The artifact endpoints serve them from here
// on.
func (m *Monitor) Finish(emtl, trace []byte, stats string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.emtl = emtl
	m.trace = trace
	m.stats = stats
	if !m.done {
		close(m.finished)
	}
	m.done = true
}

// snapshot returns the artifact state under the lock.
func (m *Monitor) snapshot() (emtl, trace []byte, stats string, done bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.emtl, m.trace, m.stats, m.done
}

// Handler returns the monitor's HTTP mux:
//
//	/              status summary (and the stats table once finished)
//	/metrics       OpenMetrics scrape of the live registry
//	/events        SSE stream of MonitorEvents
//	/timeline.emtl canonical EMTL timeline (503 until the run finishes)
//	/trace.json    Chrome counter trace (503 until the run finishes)
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		_, _, stats, done := m.snapshot()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !done {
			fmt.Fprintln(w, "embsan monitor: campaign set running")
			fmt.Fprintln(w, "endpoints: /metrics /events /timeline.emtl /trace.json")
			return
		}
		fmt.Fprintln(w, "embsan monitor: campaign set finished")
		fmt.Fprint(w, stats)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.Write(m.reg.OpenMetrics())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		ch, cancel := m.Subscribe()
		defer cancel()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		send := func(ev MonitorEvent) {
			if data, err := json.Marshal(ev); err == nil {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
				fl.Flush()
			}
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case ev := <-ch:
				send(ev)
			case <-m.finished:
				// Every event published before Finish is queued by now:
				// deliver the ones this stream kept, then end it.
				for {
					select {
					case ev := <-ch:
						send(ev)
					default:
						send(MonitorEvent{Type: "done"})
						return
					}
				}
			}
		}
	})
	artifact := func(pick func() []byte, ctype string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			_, _, _, done := m.snapshot()
			if !done {
				http.Error(w, "campaign set still running", http.StatusServiceUnavailable)
				return
			}
			w.Header().Set("Content-Type", ctype)
			w.Write(pick())
		}
	}
	mux.HandleFunc("/timeline.emtl", artifact(func() []byte { e, _, _, _ := m.snapshot(); return e }, "application/octet-stream"))
	mux.HandleFunc("/trace.json", artifact(func() []byte { _, t, _, _ := m.snapshot(); return t }, "application/json"))
	return mux
}

// RunMonitor runs a campaign set with the timeline sampler armed and the
// monitor attached, then seals the canonical artifacts into the monitor.
// The returned run — and the EMTL the monitor serves — is byte-identical
// to the same options run offline without a monitor: liveness is a view,
// never an input.
func RunMonitor(fws []*firmware.Firmware, opts CampaignOptions, m *Monitor) (*CampaignRun, error) {
	opts.Timeline = true
	opts.Monitor = m
	run, err := RunCampaignSet(fws, opts)
	if err != nil {
		return nil, err
	}
	jt := JobTimelines(run.Campaigns)
	m.Finish(timeline.Encode(jt), timeline.ChromeCounters(jt),
		FormatCampaignStats(run.Campaigns, run.Workers...))
	return run, nil
}
