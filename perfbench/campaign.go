package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"embsan/internal/exps"
	"embsan/internal/guest/firmware"
)

// window is the work and process cost of one timed window.
type window struct {
	execs      float64
	elapsed    time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (w *window) add(o window) {
	w.execs += o.execs
	w.elapsed += o.elapsed
	w.allocBytes += o.allocBytes
	w.gcCycles += o.gcCycles
	w.gcPause += o.gcPause
}

func (w window) rate() float64 { return ratio(w.execs, w.elapsed.Seconds()) }

func (w window) String() string {
	return fmt.Sprintf("execs=%.0f elapsed=%v execs/s=%.0f alloc=%dB gc=%d pause=%v",
		w.execs, w.elapsed.Round(time.Microsecond), w.rate(), w.allocBytes, w.gcCycles, w.gcPause)
}

func memDelta(a, b *runtime.MemStats) (alloc uint64, cycles uint32, pause time.Duration) {
	return b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC, time.Duration(b.PauseTotalNs - a.PauseTotalNs)
}

// round is the timed part of one campaign round: the wall time of every
// campaign after its firmware's first, in campaign order, and the round's
// summed window.
type round struct {
	durs []time.Duration
	win  window
}

// campaignRound runs one round of a campaign workload: for each firmware,
// one exps.RunCampaignSet call with a single worker and w.repeats campaigns.
// The call's first campaign boots and warms the pooled deployment and is
// not timed; each later campaign is timed from the completion of the one
// before it to its own, as observed through the campaign set's monitor. The
// round returns one fingerprint line per campaign, the found seeded bugs and
// the timings.
func campaignRound(w *workload, fws []*firmware.Firmware, base int64) ([]string, map[string]bool, round, error) {
	var lines []string
	bugs := map[string]bool{}
	var rd round
	for _, fw := range fws {
		run, stamps, win, err := timedCampaignSet(w, fw, base)
		if err != nil {
			return nil, nil, round{}, err
		}
		rd.win.add(win)
		for i, c := range run.Campaigns {
			m, err := counts(c.Raw.Metrics)
			if err != nil {
				return nil, nil, round{}, err
			}
			fd, err := delta(nil, m, "fuzz.execs")
			if err != nil {
				return nil, nil, round{}, err
			}
			execs := fd["fuzz.execs"]
			if i > 0 {
				rd.durs = append(rd.durs, stamps[i].Sub(stamps[i-1]))
				rd.win.execs += execs
			}
			var fns []string
			for _, f := range c.Found {
				fns = append(fns, f.Fn)
				bugs[fw.Name+"/"+f.Fn] = true
			}
			lines = append(lines, campaignLine(fw.Name, execs, float64(c.Stats.Insts),
				float64(c.Phases.Snapshot), float64(c.Phases.Sanitize), c.Stats.CoverBlocks, fns))
		}
	}
	return lines, bugs, rd, nil
}

// timedCampaignSet runs fw's campaigns and returns the completion time of
// each, and the window from the first completion to the last.
func timedCampaignSet(w *workload, fw *firmware.Firmware, base int64) (*exps.CampaignRun, []time.Time, window, error) {
	n := w.repeats
	mon := exps.NewMonitor()
	events, unsubscribe := mon.Subscribe()
	defer unsubscribe()
	stamps := make([]time.Time, n)
	mem := make([]runtime.MemStats, n)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		handle := func(ev exps.MonitorEvent) {
			if ev.Type != "campaign" || ev.Campaign < 0 || ev.Campaign >= n {
				return
			}
			stamps[ev.Campaign] = time.Now()
			if ev.Campaign == 0 || ev.Campaign == n-1 {
				runtime.ReadMemStats(&mem[ev.Campaign])
			}
		}
		for {
			select {
			case ev := <-events:
				handle(ev)
			case <-done:
				for {
					select {
					case ev := <-events:
						handle(ev)
					default:
						return
					}
				}
			}
		}
	}()

	runtime.GC()
	run, err := exps.RunCampaignSet([]*firmware.Firmware{fw}, exps.CampaignOptions{
		Execs: w.execs, Seed: base, Workers: 1, Repeats: n, Metrics: true, Monitor: mon,
	})
	end := time.Now()
	close(done)
	wg.Wait()
	if err != nil {
		return nil, nil, window{}, fmt.Errorf("%s: %w", fw.Name, err)
	}
	for i, s := range stamps {
		if s.IsZero() {
			return nil, nil, window{}, fmt.Errorf("%s: monitor dropped the completion of campaign %d", fw.Name, i)
		}
	}
	if stamps[n-1].After(end) {
		stamps[n-1] = end
	}
	win := window{elapsed: stamps[n-1].Sub(stamps[0])}
	win.allocBytes, win.gcCycles, win.gcPause = memDelta(&mem[0], &mem[n-1])
	return run, stamps, win, nil
}

// campaignSetRound is one untimed round of a campaign workload's input set,
// used to record its fingerprint.
func campaignSetRound(w *workload, set int) ([]string, error) {
	fws, err := buildFirmware(w.fws)
	if err != nil {
		return nil, err
	}
	lines, _, _, err := campaignRound(w, fws, baseSeed(set))
	return lines, err
}
