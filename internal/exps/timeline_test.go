package exps

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"

	"embsan/internal/obs"
	"embsan/internal/obs/timeline"
)

// timelineTestOpts samples aggressively (every 20k retired instructions)
// so short test campaigns still cut several samples per job.
func timelineTestOpts() CampaignOptions {
	return CampaignOptions{
		Execs: 200, Seed: 3, Repeats: 2,
		Timeline: true, TimelineInterval: 20_000, StallSamples: 4,
	}
}

// TestTimelineDeterministicAcrossWorkers: with the sampler armed, the
// merged timeline — campaigns' samples and marks concatenated in index
// order and EMTL-encoded — is byte-identical at workers=1, workers=4 and
// workers=GOMAXPROCS for every registry firmware, and the campaign
// outcomes still fingerprint identically. This is the oracle behind the
// FlushTBs cold-start rule in runX: without it, pooled-machine TB warmth
// would leak schedule-dependent translate/chain counts into the samples.
// Since each machine translates only its own code, every campaign's
// engine counters but its snapshot pages match across worker counts too.
func TestTimelineDeterministicAcrossWorkers(t *testing.T) {
	opts := timelineTestOpts()
	opts.Execs = 120
	opts.Metrics = true // fills Phases, which the sample check below reads

	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	type run struct {
		fp, engine string
		emtl       []byte
	}
	runs := make([]run, 0, len(counts))
	for _, workers := range counts {
		opts.Workers = workers
		cr, err := RunCampaignSet(nil, opts) // nil = the full Table 1 registry
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		jobs := JobTimelines(cr.Campaigns)
		if len(jobs) != len(cr.Campaigns) {
			t.Fatalf("workers=%d: %d timelines for %d campaigns", workers, len(jobs), len(cr.Campaigns))
		}
		for _, j := range jobs {
			for i := 1; i < len(j.Samples); i++ {
				if j.Samples[i].VClock <= j.Samples[i-1].VClock {
					t.Fatalf("workers=%d job %d: non-monotone sample clocks", workers, j.ID)
				}
			}
		}
		var engine strings.Builder
		for _, c := range cr.Campaigns {
			// The sampler, Engine and the Phases taken from it read the
			// engine counters by name on separate paths, so a misspelt name
			// reads 0 on one side. The terminal sample must agree with both;
			// only the pages of the campaign's first Restore precede the
			// sampler's base.
			last, p, e := c.Timeline[len(c.Timeline)-1], c.Phases, c.Engine
			if last.Translate != p.Translate || last.Sanitize != p.Sanitize ||
				last.Snapshot == 0 || last.Snapshot > p.Snapshot ||
				last.ChainHits != e["emu.chain.hits"] || last.Dispatches != e["emu.dispatch.entries"] {
				t.Errorf("workers=%d %s: terminal sample %+v disagrees with phases %+v and engine delta %v",
					workers, c.Firmware.Name, last, p, e)
			}
			// A campaign's first Restore copies back the pages that the
			// pooled machine's previous job dirtied, so its snapshot pages
			// depend on the schedule (see Campaign.Engine). Every other
			// count must match.
			e = maps.Clone(e)
			delete(e, "emu.snapshot.restore_pages")
			fmt.Fprintf(&engine, "%s %v\n", c.Firmware.Name, e)
		}
		runs = append(runs, run{fp: campaignFingerprint(cr.Campaigns),
			engine: engine.String(), emtl: timeline.Encode(jobs)})
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].fp != runs[0].fp {
			t.Errorf("workers=%d: campaign outcomes diverged from workers=%d with timeline on",
				counts[i], counts[0])
		}
		if runs[i].engine != runs[0].engine {
			t.Errorf("workers=%d: engine counters diverged from workers=%d:\n%s\nvs\n%s",
				counts[i], counts[0], runs[i].engine, runs[0].engine)
		}
		if !bytes.Equal(runs[i].emtl, runs[0].emtl) {
			t.Errorf("workers=%d: merged EMTL bytes diverged from workers=%d", counts[i], counts[0])
		}
	}

	// The canonical artefact round-trips.
	jobs, err := timeline.Decode(runs[0].emtl)
	if err != nil {
		t.Fatalf("merged EMTL failed to decode: %v", err)
	}
	if !bytes.Equal(timeline.Encode(jobs), runs[0].emtl) {
		t.Error("EMTL round trip is not the identity on campaign output")
	}
}

// TestTimelineOffIsNoop: arming the sampler leaves campaign outcomes
// fingerprint-identical to an unsampled run, and the stall@ stats column
// appears only when timelines were recorded.
func TestTimelineOffIsNoop(t *testing.T) {
	fws := buildSubset(t, "InfiniTime")
	base := CampaignOptions{Execs: 200, Seed: 3, Workers: 1}

	off, err := RunCampaignSet(fws, base)
	if err != nil {
		t.Fatal(err)
	}
	on := base
	on.Timeline = true
	on.TimelineInterval = 20_000
	onRun, err := RunCampaignSet(fws, on)
	if err != nil {
		t.Fatal(err)
	}

	if campaignFingerprint(off.Campaigns) != campaignFingerprint(onRun.Campaigns) {
		t.Error("timeline sampling changed campaign outcomes")
	}
	if len(off.Campaigns[0].Timeline) != 0 {
		t.Error("unsampled campaign carries timeline samples")
	}
	if len(onRun.Campaigns[0].Timeline) == 0 {
		t.Fatal("sampled campaign recorded no samples")
	}

	offStats := FormatCampaignStats(off.Campaigns, off.Workers...)
	onStats := FormatCampaignStats(onRun.Campaigns, onRun.Workers...)
	if strings.Contains(offStats, "stall@") {
		t.Errorf("timeline-off stats leak the stall@ column:\n%s", offStats)
	}
	if !strings.Contains(onStats, "stall@") {
		t.Errorf("timeline-on stats missing the stall@ column:\n%s", onStats)
	}

	// The terminal sample agrees with the merged campaign stats.
	c := onRun.Campaigns[0]
	last := c.Timeline[len(c.Timeline)-1]
	if last.CoverBlocks != uint64(c.Stats.CoverBlocks) ||
		last.CorpusSize != uint64(c.Stats.CorpusSize) {
		t.Errorf("terminal sample %+v disagrees with campaign stats %+v", last, c.Stats)
	}
	if last.Execute == 0 || last.Dispatches == 0 {
		t.Errorf("terminal sample missing engine accounting: %+v", last)
	}
}

// TestTimelineSamplerOutlivesEventRing: a deliberately tiny trace ring
// wraps and drops events, but the timeline sampler — whose buffer
// decimates instead of dropping — still records the identical samples a
// big-ring run does. Degrading one observability channel never degrades
// the other.
func TestTimelineSamplerOutlivesEventRing(t *testing.T) {
	fws := buildSubset(t, "InfiniTime")
	opts := timelineTestOpts()
	opts.Workers = 1
	opts.Repeats = 1
	opts.Trace = true
	opts.TraceEvents = 64

	small, err := RunCampaignSet(fws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if small.Campaigns[0].TraceDropped == 0 {
		t.Fatal("64-event ring did not overflow; the test needs wraparound")
	}

	opts.TraceEvents = 0 // default-size ring
	big, err := RunCampaignSet(fws, opts)
	if err != nil {
		t.Fatal(err)
	}

	a := timeline.Encode(JobTimelines(small.Campaigns))
	b := timeline.Encode(JobTimelines(big.Campaigns))
	if !bytes.Equal(a, b) {
		t.Error("ring wraparound perturbed the sampled timeline")
	}
	// The stall/novelty events the sampler emitted into the wrapped ring
	// still validate as part of the campaign's trace.
	if err := obs.ValidateChrome(obs.ChromeTrace(JobTraces(small.Campaigns))); err != nil {
		t.Errorf("wrapped trace with timeline marks fails validation: %v", err)
	}
}

// TestTimelineExportsFromCampaign: the three exporters render real
// campaign output, and the Chrome counter export validates.
func TestTimelineExportsFromCampaign(t *testing.T) {
	fws := buildSubset(t, "InfiniTime")
	opts := timelineTestOpts()
	opts.Workers = 1
	opts.Repeats = 1
	cr, err := RunCampaignSet(fws, opts)
	if err != nil {
		t.Fatal(err)
	}
	jobs := JobTimelines(cr.Campaigns)
	if err := obs.ValidateChrome(timeline.ChromeCounters(jobs)); err != nil {
		t.Errorf("campaign ChromeCounters invalid: %v", err)
	}
	if out := timeline.GrowthCurve(jobs); !strings.Contains(out, "campaign-0;cover;") {
		t.Errorf("growth curve missing cover series:\n%s", out)
	}
	om := string(timeline.OpenMetrics(jobs))
	if !strings.HasSuffix(om, "# EOF\n") || !strings.Contains(om, "embsan_timeline_execs{campaign=\"0\"}") {
		t.Errorf("OpenMetrics export malformed:\n%s", om)
	}
}

// TestMaskWallClock: the mask rewrites every throughput token — rendered
// rates and the zero-elapsed placeholder alike — and leaves the execs/s
// header and all virtual-time cells alone.
func TestMaskWallClock(t *testing.T) {
	in := "worker jobs execs/s\n0 4   1234.5/s\n1 2    -/s\ntotal 6  617.3/s\n"
	got := MaskWallClock(in)
	if strings.Contains(got, "1234.5/s") || strings.Contains(got, "617.3/s") {
		t.Errorf("rates survived masking: %q", got)
	}
	if !strings.Contains(got, "execs/s") {
		t.Errorf("header did not survive masking: %q", got)
	}
	if MaskWallClock(got) != got {
		t.Errorf("mask is not idempotent: %q", got)
	}
}

// TestCampaignStatsRatesMasked: a real formatted table carries an execs/s
// column whose wall-clock cells differ run to run, but masks to a stable
// byte string.
func TestCampaignStatsRatesMasked(t *testing.T) {
	fws := buildSubset(t, "InfiniTime")
	opts := CampaignOptions{Execs: 120, Seed: 3, Workers: 1}
	a, err := RunCampaignSet(fws, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaignSet(fws, opts)
	if err != nil {
		t.Fatal(err)
	}
	sa := FormatCampaignStats(a.Campaigns, a.Workers...)
	sb := FormatCampaignStats(b.Campaigns, b.Workers...)
	if !strings.Contains(sa, "execs/s") {
		t.Fatalf("stats table missing execs/s column:\n%s", sa)
	}
	if MaskWallClock(sa) != MaskWallClock(sb) {
		t.Errorf("masked stats diverged:\n--- a ---\n%s\n--- b ---\n%s", MaskWallClock(sa), MaskWallClock(sb))
	}
}
