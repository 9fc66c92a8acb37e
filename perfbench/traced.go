package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"embsan/internal/fuzz"
	"embsan/internal/guest/firmware"
	"embsan/internal/sched"
)

// span is one timed call into a layer of the program. Spans are kept in
// memory and written out when the run ends.
type span struct {
	Name   string `json:"name"`
	FW     string `json:"fw"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans relative to its creation. A nil tracer records
// nothing, so untraced set-up shares the deployment code.
type tracer struct {
	t0    time.Time
	spans []span
}

// record adds a root span for an interval the caller measured and returns
// its index.
func (tr *tracer) record(name, fw string, start time.Time, d time.Duration) int {
	return tr.child(name, fw, -1, start, d)
}

func (tr *tracer) child(name, fw string, parent int, start time.Time, d time.Duration) int {
	if tr == nil {
		return -1
	}
	s := int64(start.Sub(tr.t0))
	tr.spans = append(tr.spans, span{Name: name, FW: fw, Parent: parent, Start: s, End: s + int64(d)})
	return len(tr.spans) - 1
}

// write stores the spans as JSON under .bench_build in the working
// directory and returns the file's path.
func (tr *tracer) write(name string) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench-spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	out, err := json.Marshal(tr.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	return path, os.WriteFile(path, out, 0o644)
}

// machineCounters are the emulator instruments the traced run reads by name.
var machineCounters = []string{
	"emu.snapshot.restore_pages", "emu.translate.insts",
	"emu.tb.hits", "emu.tb.misses", "emu.dispatch.entries", "emu.chain.hits",
	"emu.sanck.traps", "emu.mem.probes", "emu.sanck.elided", "emu.mem.elided",
	"emu.inline.fast", "emu.inline.slow",
}

// layerSums accumulates the traced run's work counts and span times over
// the workload's firmware.
type layerSums struct {
	newT, bootT, analyzeT, labelT time.Duration

	// The main loop: the campaigns after each firmware's first, or the
	// traced replay passes. Counts and ratios come from here.
	execs, insts float64
	ctr          map[string]float64
	loopT        time.Duration

	// Campaigns only: fuzz.Fuzzer.Run spans (ns) of the main loop and the
	// fuzzer's counts over every campaign.
	runT                   float64
	corpus, cover, crashes float64

	// Replay spans: per-unit costs of Restore and Exec.
	replay replayCost
}

func (s *layerSums) addDeploy(d *deployment) {
	s.newT += d.newT
	s.bootT += d.bootT
	s.analyzeT += d.analyzeT
	s.labelT += d.labelT
}

// addCounts adds src into dst, allocating dst on first use.
func addCounts(dst, src map[string]float64) map[string]float64 {
	if dst == nil {
		dst = map[string]float64{}
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

// replayCost is the span and count totals of traced replay passes.
type replayCost struct {
	execs, insts    float64
	ctr             map[string]float64
	loopT           time.Duration
	restoreT, execT time.Duration
	cleanExecs      float64       // executions that ended Done without a report
	cleanT, bareT   time.Duration // their Exec time, sanitized and bare
}

func (c *replayCost) add(o replayCost) {
	c.execs += o.execs
	c.insts += o.insts
	c.ctr = addCounts(c.ctr, o.ctr)
	c.loopT += o.loopT
	c.restoreT += o.restoreT
	c.execT += o.execT
	c.cleanExecs += o.cleanExecs
	c.cleanT += o.cleanT
	c.bareT += o.bareT
}

// tracedReplayPasses is the number of traced passes over a replay corpus.
const tracedReplayPasses = 3

// tracedReplay replays t's inputs with spans around Restore and Exec, then
// replays the clean ones on bare, a deployment of the same image without a
// sanitizer, so the difference in Exec time is the sanitizer's cost. The
// settle pass must have run. Outcomes that differ from it are failures.
func tracedReplay(tr *tracer, t *replayTarget, bare *deployment, tl *tally) (replayCost, error) {
	fw := t.d.fw.Name
	inst := t.d.inst
	var c replayCost
	before, err := counts(inst.Machine.Metrics())
	if err != nil {
		return c, err
	}
	loop := time.Now()
	for p := 0; p < tracedReplayPasses; p++ {
		for i, in := range t.inputs {
			st := time.Now()
			inst.Restore()
			inst.Machine.Reseed(replaySeed)
			et := time.Now()
			r := inst.Exec(in, execBudget)
			end := time.Now()
			tr.record("emu.restore", fw, st, et.Sub(st))
			tr.record("emu.exec", fw, et, end.Sub(et))
			c.restoreT += et.Sub(st)
			c.execT += end.Sub(et)
			c.insts += float64(r.Insts)
			c.execs++
			tl.attempted++
			if !t.refs[i].matches(r) {
				tl.fail("%s traced replay: input %d: outcome %s, want %+v", fw, i, outcome(r), t.refs[i])
			}
			if t.refs[i].done {
				c.cleanExecs++
				c.cleanT += end.Sub(et)
			}
		}
	}
	c.loopT = time.Since(loop)
	after, err := counts(inst.Machine.Metrics())
	if err != nil {
		return c, err
	}
	if c.ctr, err = delta(before, after, machineCounters...); err != nil {
		return c, err
	}

	// One untimed pass warms the bare deployment's translation cache.
	for p := 0; p <= tracedReplayPasses; p++ {
		for i, in := range t.inputs {
			if !t.refs[i].done {
				continue
			}
			bare.inst.Restore()
			bare.inst.Machine.Reseed(replaySeed)
			et := time.Now()
			bare.inst.Exec(in, execBudget)
			if p > 0 {
				d := time.Since(et)
				tr.record("emu.exec.bare", fw, et, d)
				c.bareT += d
			}
		}
	}
	return c, nil
}

// gapRow is one firmware's line of the campaign-versus-replay gap view.
type gapRow struct {
	fw                           string
	campaignNsInst, replayNsInst float64
	restoreShare, sanShare       float64
}

func (g gapRow) String() string {
	return fmt.Sprintf("%-22s %12.2f %12.2f %9.1f%% %9.1f%%", g.fw, g.campaignNsInst, g.replayNsInst,
		100*g.restoreShare, 100*g.sanShare)
}

func gapOf(fw string, runT, runInsts float64, c replayCost) gapRow {
	return gapRow{
		fw:             fw,
		campaignNsInst: ratio(runT, runInsts),
		replayNsInst:   ratio(float64(c.execT), c.insts),
		restoreShare:   ratio(float64(c.restoreT), float64(c.restoreT+c.execT)),
		sanShare:       ratio(float64(c.cleanT-c.bareT), float64(c.cleanT)),
	}
}

// tracedCampaigns drives each firmware's campaigns through the public calls
// the campaign driver makes — core.New, Boot, Snapshot, static analysis,
// fuzz.New, Run — with the seeds of the campaign set's indices, checks each
// campaign against the fingerprint, then replays the campaigns' saved corpus
// on the same deployment.
func tracedCampaigns(w *workload, base int64, want []string, tr *tracer, s *layerSums, tl *tally) ([]gapRow, error) {
	fws, err := buildFirmware(w.fws)
	if err != nil {
		return nil, err
	}
	var lines []string
	var rows []gapRow
	for _, fw := range fws {
		d, err := deployCampaign(fw, base, tr)
		if err != nil {
			return nil, err
		}
		s.addDeploy(d)
		var corpus [][]byte
		var runT, runInsts float64
		for i := 0; i < w.repeats; i++ {
			seed := sched.Split(base, i)
			before, err := counts(d.inst.Machine.Metrics())
			if err != nil {
				return nil, err
			}
			start := time.Now()
			d.inst.Restore()
			d.inst.Machine.Reseed(uint64(seed))
			f, err := fuzz.New(fuzzConfig(d, seed, w.execs))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fw.Name, err)
			}
			runStart := time.Now()
			res := f.Run()
			end := time.Now()
			parent := tr.record("fuzz.campaign", fw.Name, start, end.Sub(start))
			tr.child("fuzz.run", fw.Name, parent, runStart, end.Sub(runStart))

			after, err := counts(d.inst.Machine.Metrics())
			if err != nil {
				return nil, err
			}
			dc, err := delta(before, after, machineCounters...)
			if err != nil {
				return nil, err
			}
			fm, err := counts(res.Metrics)
			if err != nil {
				return nil, err
			}
			fd, err := delta(nil, fm, "fuzz.execs", "fuzz.exec.insts.sum", "fuzz.corpus.size", "fuzz.crashes.unique")
			if err != nil {
				return nil, err
			}
			seen := map[string]bool{}
			var fns []string
			for _, cr := range res.Crashes {
				if fn := attribute(fw, d.sigToBug, cr.Report); fn != "" && !seen[fn] {
					seen[fn] = true
					fns = append(fns, fn)
				}
			}
			lines = append(lines, campaignLine(fw.Name, fd["fuzz.execs"], fd["fuzz.exec.insts.sum"],
				dc["emu.snapshot.restore_pages"], dc["emu.sanck.traps"]+dc["emu.mem.probes"],
				res.Stats.CoverBlocks, fns))
			s.corpus += fd["fuzz.corpus.size"]
			s.cover += float64(res.Stats.CoverBlocks)
			s.crashes += fd["fuzz.crashes.unique"]
			corpus = append(corpus, res.Corpus...)
			if i == 0 {
				continue // the first campaign warms the deployment, as in the timed rounds
			}
			s.execs += fd["fuzz.execs"]
			s.insts += fd["fuzz.exec.insts.sum"]
			s.ctr = addCounts(s.ctr, dc)
			s.loopT += end.Sub(start)
			runT += float64(end.Sub(runStart))
			runInsts += fd["fuzz.exec.insts.sum"]
		}
		s.runT += runT

		bare, err := deployReplay(fw, base, true, nil)
		if err != nil {
			return nil, err
		}
		t := &replayTarget{d: d, inputs: corpus}
		if _, _, err := t.settle(); err != nil {
			return nil, err
		}
		c, err := tracedReplay(tr, t, bare, tl)
		if err != nil {
			return nil, err
		}
		s.replay.add(c)
		rows = append(rows, gapOf(fw.Name, runT, runInsts, c))
	}
	checkLines(tl, w.name+" traced campaigns", lines, want)
	return rows, nil
}

// tracedReplayWorkload deploys the replay workload afresh with spans,
// replays the corpus of the untraced targets, checks the settle pass
// against the fingerprint and makes the traced passes.
func tracedReplayWorkload(w *workload, base int64, corpus []*replayTarget, want []string, tr *tracer, s *layerSums, tl *tally) error {
	targets := make([]*replayTarget, len(corpus))
	for i, u := range corpus {
		d, err := deployReplay(u.d.fw, base, false, tr)
		if err != nil {
			return err
		}
		s.addDeploy(d)
		targets[i] = &replayTarget{d: d, inputs: u.inputs}
	}
	lines, _, err := settleAll(targets)
	if err != nil {
		return err
	}
	checkLines(tl, w.name+" traced settle pass", lines, want)
	for _, t := range targets {
		bare, err := deployReplay(t.d.fw, base, true, nil)
		if err != nil {
			return err
		}
		c, err := tracedReplay(tr, t, bare, tl)
		if err != nil {
			return err
		}
		s.replay.add(c)
	}
	s.execs, s.insts, s.loopT = s.replay.execs, s.replay.insts, s.replay.loopT
	s.ctr = addCounts(s.ctr, s.replay.ctr)
	return nil
}

// layerMetrics derives the per-layer metrics of one traced round.
func layerMetrics(s *layerSums) map[string]float64 {
	c := s.ctr
	checks := c["emu.sanck.traps"] + c["emu.mem.probes"]
	elided := c["emu.sanck.elided"] + c["emu.mem.elided"]
	execNsInst := ratio(float64(s.replay.execT), s.replay.insts)
	tbHit := 1.0 // no dispatcher lookup, so none missed
	if c["emu.dispatch.entries"] > 0 {
		tbHit = 1 - c["emu.tb.misses"]/c["emu.dispatch.entries"]
	}
	return map[string]float64{
		"core.new_s":                 s.newT.Seconds(),
		"core.boot_s":                s.bootT.Seconds(),
		"static.analyze_s":           s.analyzeT.Seconds(),
		"core.label_s":               s.labelT.Seconds(),
		"emu.restore.ns_per_exec":    ratio(float64(s.replay.restoreT), s.replay.execs),
		"emu.restore.ns_per_page":    ratio(float64(s.replay.restoreT), s.replay.ctr["emu.snapshot.restore_pages"]),
		"emu.restore.pages_per_exec": ratio(c["emu.snapshot.restore_pages"], s.execs),
		"emu.exec.ns_per_inst":       execNsInst,
		"emu.exec.insts_per_exec":    ratio(s.insts, s.execs),
		"emu.chain.hit_ratio":        ratio(c["emu.chain.hits"], c["emu.chain.hits"]+c["emu.dispatch.entries"]),
		"emu.tb.hit_ratio":           tbHit,
		"emu.translate.insts":        c["emu.translate.insts"],
		"san.checks_per_exec":        ratio(checks, s.execs),
		"san.elided_ratio":           ratio(elided, elided+checks),
		"san.inline_fast_ratio":      ratio(c["emu.inline.fast"], c["emu.inline.fast"]+c["emu.inline.slow"]),
		"san.ns_per_exec":            ratio(float64(s.replay.cleanT-s.replay.bareT), s.replay.cleanExecs),
		"fuzz.run.ns_per_exec":       ratio(s.runT, s.execs),
		"fuzz.replay_gap_ratio":      ratio(ratio(s.runT, s.insts), execNsInst),
		"fuzz.corpus_size":           s.corpus,
		"fuzz.cover_blocks":          s.cover,
		"fuzz.crashes_unique":        s.crashes,
		"trace.execs_per_s":          ratio(s.execs, s.loopT.Seconds()),
	}
}

// layerUnits gives each per-layer metric its unit.
var layerUnits = map[string]string{
	"core.new_s": "s", "core.boot_s": "s", "static.analyze_s": "s", "core.label_s": "s",
	"emu.restore.ns_per_exec": "ns", "emu.restore.ns_per_page": "ns", "emu.restore.pages_per_exec": "count",
	"emu.exec.ns_per_inst": "ns", "emu.exec.insts_per_exec": "count",
	"emu.chain.hit_ratio": "ratio", "emu.tb.hit_ratio": "ratio", "emu.translate.insts": "count",
	"san.checks_per_exec": "count", "san.elided_ratio": "ratio", "san.inline_fast_ratio": "ratio",
	"san.ns_per_exec":      "ns",
	"fuzz.run.ns_per_exec": "ns", "fuzz.replay_gap_ratio": "ratio",
	"fuzz.corpus_size": "count", "fuzz.cover_blocks": "count", "fuzz.crashes_unique": "count",
	"proc.alloc_bytes_per_exec": "B", "proc.gc_cycles": "count", "proc.gc_pause_ms": "ms",
	"trace.execs_per_s": "1/s", "trace.overhead_ratio": "ratio",
}

// runTraced alternates untraced windows with traced rounds until dur has
// passed and reports the median of each per-layer metric over the rounds.
// The untraced windows give the process-level costs and the tracing
// overhead; only the first traced round's spans are kept and written out.
func runTraced(w *workload, set int, want []string, dur time.Duration) (*result, error) {
	base := baseSeed(set)
	tl := &tally{}

	var fws []*firmware.Firmware
	var corpus []*replayTarget
	var err error
	if w.replay {
		corpora, err := replayCorpora(w, base)
		if err != nil {
			return nil, err
		}
		_, deps, err := setUp(w, base)
		if err != nil {
			return nil, err
		}
		corpus = replayTargets(deps, corpora)
		lines, _, err := settleAll(corpus)
		if err != nil {
			return nil, err
		}
		checkLines(tl, w.name+" settle pass", lines, want)
	} else if fws, err = buildFirmware(w.fws); err != nil {
		return nil, err
	}

	var first *tracer
	per := map[string][]float64{}
	gaps := map[string][]gapRow{}
	var untracedRates []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < dur; n++ {
		var un window
		if w.replay {
			un = replayWindow(w, corpus, tl)
		} else {
			lines, _, rd, err := campaignRound(w, fws, base)
			if err != nil {
				return nil, err
			}
			checkLines(tl, fmt.Sprintf("%s untraced round %d", w.name, n), lines, want)
			un = rd.win
		}
		fmt.Fprintf(os.Stderr, "untraced window %d: %v\n", n, un)
		untracedRates = append(untracedRates, un.rate())
		per["proc.alloc_bytes_per_exec"] = append(per["proc.alloc_bytes_per_exec"], ratio(float64(un.allocBytes), un.execs))
		per["proc.gc_cycles"] = append(per["proc.gc_cycles"], float64(un.gcCycles))
		per["proc.gc_pause_ms"] = append(per["proc.gc_pause_ms"], float64(un.gcPause)/1e6)

		var tr *tracer
		if n == 0 {
			tr = &tracer{t0: time.Now()}
			first = tr
		}
		s := &layerSums{}
		if w.replay {
			err = tracedReplayWorkload(w, base, corpus, want, tr, s, tl)
		} else {
			var rows []gapRow
			rows, err = tracedCampaigns(w, base, want, tr, s, tl)
			for _, r := range rows {
				gaps[r.fw] = append(gaps[r.fw], r)
			}
		}
		if err != nil {
			return nil, err
		}
		for k, v := range layerMetrics(s) {
			per[k] = append(per[k], v)
		}
	}

	if !w.replay {
		fmt.Printf("gap view (%s), medians over %d traced rounds: host ns per guest instruction in the\n", w.name, len(untracedRates))
		fmt.Printf("campaign and in a replay of its saved corpus; restore and sanitizer shares of replay time\n")
		fmt.Printf("%-22s %12s %12s %10s %10s\n", "firmware", "campaign", "replay", "restore", "sanitizer")
		for _, name := range w.fws {
			var camp, rep, restore, san []float64
			for _, g := range gaps[name] {
				camp = append(camp, g.campaignNsInst)
				rep = append(rep, g.replayNsInst)
				restore = append(restore, g.restoreShare)
				san = append(san, g.sanShare)
			}
			fmt.Println(gapRow{name, median(camp), median(rep), median(restore), median(san)})
		}
	}
	path, err := first.write(fmt.Sprintf("%s-%d", w.name, set))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(first.spans), path)

	m := map[string]metric{}
	for k, vs := range per {
		m[k] = metric{median(vs), layerUnits[k]}
	}
	m["trace.overhead_ratio"] = metric{ratio(median(untracedRates), m["trace.execs_per_s"].Value), "ratio"}
	for k := range layerUnits {
		if _, ok := m[k]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", k)
		}
	}
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}, nil
}
