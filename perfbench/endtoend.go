package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"embsan/internal/guest/firmware"
)

// setupRepeats is how many times a run sets up from scratch; setup_s is the
// median. Set-up takes tens of milliseconds, so one run affords many.
const setupRepeats = 15

// setUp builds the workload's images and deploys every firmware, returning
// the wall time it took and the deployments. Every set-up starts from the
// same state, a collected heap whose free memory has been handed back to
// the operating system, and each deployment starts after a collection that
// is not timed. With the earlier deployments live, the collector then has
// no reason to run inside a deployment, so neither the set-up time nor the
// process's peak memory depends on when a collection happened to start.
func setUp(w *workload, base int64) (time.Duration, []*deployment, error) {
	debug.FreeOSMemory()
	start := time.Now()
	fws, err := buildFirmware(w.fws)
	if err != nil {
		return 0, nil, err
	}
	total := time.Since(start)
	deps := make([]*deployment, len(fws))
	for i, fw := range fws {
		runtime.GC()
		start = time.Now()
		if w.replay {
			deps[i], err = deployReplay(fw, base, false, nil)
		} else {
			deps[i], err = deployCampaign(fw, base, nil)
		}
		if err != nil {
			return 0, nil, err
		}
		total += time.Since(start)
	}
	return total, deps, nil
}

// runEndToEnd sets up once, runs the workload for dur, then sets up
// setupRepeats-1 more times for a steady setup_s. Every set-up reaches the
// same peak memory, so the process's peak is that of one set-up and the
// workload.
func runEndToEnd(w *workload, set int, want []string, dur time.Duration) (*result, error) {
	base := baseSeed(set)
	var corpora [][][]byte
	if w.replay {
		var err error
		if corpora, err = replayCorpora(w, base); err != nil {
			return nil, err
		}
	}
	first, deps, err := setUp(w, base)
	if err != nil {
		return nil, err
	}
	// The workload starts with only the set-up's memory held.
	debug.FreeOSMemory()
	tl := &tally{}
	var rate float64
	var bugs int
	if w.replay {
		rate, bugs, err = replayRate(w, replayTargets(deps, corpora), want, dur, tl)
	} else {
		fws := make([]*firmware.Firmware, len(deps))
		for i, d := range deps {
			fws[i] = d.fw
		}
		deps = nil // the campaign driver deploys its own
		rate, bugs, err = campaignRate(w, fws, base, want, dur, tl)
	}
	if err != nil {
		return nil, err
	}
	deps = nil

	times := []float64{first.Seconds()}
	for len(times) < setupRepeats {
		d, _, err := setUp(w, base)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	return &result{
		Correct:   tl.failed == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics: map[string]metric{
			"execs_per_s": {rate, "1/s"},
			"setup_s":     {median(times), "s"},
			"peak_rss_mb": {peakRSSMB(), "MiB"},
			"bugs_found":  {float64(bugs), "count"},
		},
	}, nil
}

// replayRate checks the settle pass against the fingerprint, then runs
// timed windows until dur has passed and returns the median window's
// execs/s and the seeded bugs the corpus reaches.
func replayRate(w *workload, targets []*replayTarget, want []string, dur time.Duration, tl *tally) (float64, int, error) {
	lines, found, err := settleAll(targets)
	if err != nil {
		return 0, 0, err
	}
	checkLines(tl, w.name+" settle pass", lines, want)
	var rates []float64
	start := time.Now()
	for len(rates) == 0 || time.Since(start) < dur {
		win := replayWindow(w, targets, tl)
		fmt.Fprintf(os.Stderr, "window %d: %v\n", len(rates), win)
		rates = append(rates, win.rate())
	}
	return median(rates), len(found), nil
}

// campaignRate runs campaign rounds until dur has passed, checking every
// campaign against the fingerprint, and returns the execs/s and the seeded
// bugs found. Every round repeats the same campaigns, so each campaign's
// wall time is taken as its median over the rounds: a burst of host noise
// lands in a few campaigns of a few rounds and drops out.
func campaignRate(w *workload, fws []*firmware.Firmware, base int64, want []string, dur time.Duration, tl *tally) (float64, int, error) {
	var durs [][]float64
	var execs float64
	bugs := 0
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < dur; n++ {
		lines, found, rd, err := campaignRound(w, fws, base)
		if err != nil {
			if n == 0 {
				return 0, 0, err
			}
			tl.attempted++
			tl.fail("round %d: %v", n, err)
			break
		}
		checkLines(tl, fmt.Sprintf("round %d", n), lines, want)
		fmt.Fprintf(os.Stderr, "round %d: %v\n", n, rd.win)
		if n == 0 {
			bugs = len(found)
			execs = rd.win.execs
			durs = make([][]float64, len(rd.durs))
		}
		for k, d := range rd.durs {
			durs[k] = append(durs[k], d.Seconds())
		}
	}
	var total float64
	for _, d := range durs {
		total += median(d)
	}
	return ratio(execs, total), bugs, nil
}
