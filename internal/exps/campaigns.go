package exps

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"embsan/internal/core"
	"embsan/internal/emu"
	"embsan/internal/fuzz"
	"embsan/internal/guest/firmware"
	"embsan/internal/obs"
	"embsan/internal/obs/timeline"
	"embsan/internal/san"
	"embsan/internal/sched"
	"embsan/internal/static"
	"embsan/internal/static/absint"
)

// CampaignOptions tunes the Table 3/4 fuzzing campaigns. The paper ran
// 7-day campaigns; the reproduction bounds each firmware by executions.
type CampaignOptions struct {
	Execs int   // per-campaign execution budget (default 30000)
	Seed  int64 // base seed; campaign i runs with sched.Split(Seed, i)
	// Workers sizes the scheduler's pool (0 = GOMAXPROCS, 1 = serial).
	// Merged results are identical for every value.
	Workers int
	// Repeats runs each firmware that many times (default 1) with
	// independent derived seeds — the multi-campaign workloads of the
	// throughput experiments.
	Repeats int
	// Elide applies the static safety proofs to the deployment
	// (core.Config.Elide): provably-safe SANCK traps are dropped from
	// EMBSAN-C images and proven access sites skip delegate dispatch on
	// EMBSAN-D machines. Bug findings are unchanged; only the trap/probe
	// counters move.
	Elide bool
	// Trace captures a per-campaign obs event stream (Campaign.Trace).
	// Campaign outcomes are unchanged — each job's stream is a pure function
	// of its index, so determinism across worker counts holds with tracing
	// on or off.
	Trace bool
	// TraceEvents bounds each campaign's ring (default obs.DefaultRingEvents);
	// overflow drops the oldest events and bumps Campaign.TraceDropped.
	TraceEvents int
	// Metrics computes the per-phase virtual-time breakdown
	// (Campaign.Phases) even when full event tracing is off.
	Metrics bool
	// NoFastPaths runs the campaigns on the pre-fast-path engine: TB
	// chaining and the inline shadow check (core.Config.NoInlineCheck) are
	// both off on the pooled machines.
	// Campaign outcomes are identical with it on or off — the differential
	// oracle tests assert exactly that — so the flag exists for the
	// fast-path oracles (fastpath_diff_test.go), not for production use.
	NoFastPaths bool
	// Forensics arms forensic provenance capture (core.Instance.ArmForensics)
	// for the campaign: crash reports carry allocation and free backtraces
	// stamped from the shadow call stack. Purely host-side, so campaign
	// outcomes (found bugs, coverage, execs) are unchanged; only the report
	// extras and the worker frame counters move.
	Forensics bool
	// Timeline samples the campaign-progress metric vector every
	// TimelineInterval retired instructions on the campaign's cumulative
	// virtual clock (Campaign.Timeline). Like Trace, each campaign's
	// timeline is a pure function of its index, so the merged timeline is
	// byte-identical across worker counts.
	Timeline bool
	// TimelineInterval is the sample period in retired instructions
	// (default timeline.DefaultInterval).
	TimelineInterval uint64
	// TimelineSamples bounds each campaign's sample buffer (default
	// timeline.DefaultMaxSamples); beyond it the sampler decimates.
	TimelineSamples int
	// StallSamples tunes the plateau detector: a stall mark fires after
	// this many consecutive samples without a new cover block (default
	// timeline.DefaultStallSamples).
	StallSamples int
	// Monitor, when set, receives wall-clock liveness events (samples,
	// marks, crashes, campaign completions) as the set runs — the embsan
	// monitor's SSE feed. Purely view-side: the canonical timeline and
	// campaign outcomes are unchanged with or without it.
	Monitor *Monitor
}

// FoundBug is one campaign finding attributed to a seeded bug.
type FoundBug struct {
	Firmware string
	BaseOS   string
	Arch     string
	Location string
	Fn       string
	Class    string // OOB Access / UAF / Double Free / Race
	Execs    int    // executions consumed when found
}

// Campaign is the outcome for one firmware.
type Campaign struct {
	Firmware *firmware.Firmware
	Stats    fuzz.Stats
	Found    []FoundBug
	Missed   []string // seeded bugs the campaign did not reach
	Corpus   [][]byte
	Raw      *fuzz.Result // full fuzzer output (for artifact persistence)

	// Observability extras, populated only when CampaignOptions.Trace /
	// .Metrics ask for them. Phases is a worker-local diagnostic — its
	// translate and snapshot components depend on how warm the pooled
	// machine's TB cache was — so none of these fields participate in
	// campaign-result comparisons.
	Trace        []obs.Event
	TraceDropped uint64
	Phases       obs.Phases

	// Engine is the machine-counter delta accumulated by this campaign:
	// dispatch, chaining and inline accounting included. Like Phases it is
	// a worker-local diagnostic (the translation fields depend on how warm
	// the pooled machine's TB cache was, unless Timeline flushed it) and
	// participates in no campaign-result comparison; the fast-path oracles
	// read it to check which paths engaged, and Phases and the worker
	// counters are derived from it.
	Engine emu.Counters

	// Timeline extras, populated when CampaignOptions.Timeline asks for
	// them. Unlike Phases these DO uphold the determinism contract: the
	// samples are cut on the virtual clock from campaign-relative counter
	// deltas, so a campaign's timeline is identical on every worker count
	// and participates in the byte-identity oracles.
	Timeline         []timeline.Sample
	TimelineMarks    []timeline.Mark
	TimelineInterval uint64
}

// warmed is one worker-held firmware deployment: booted once, ground-truth
// labelled, snapshotted. Campaigns rewind it with Restore + Reseed instead
// of re-constructing and re-booting the machine — the snapshot-pooling that
// makes the parallel executor fast. A warmed value is private to one
// scheduler worker (sched's one-Machine-per-goroutine invariant).
type warmed struct {
	inst     *core.Instance
	sigToBug map[string]*firmware.Bug
	reach    static.ReachReport // static coverage upper bound, computed once
	leaders  []uint32           // reachable block-leader PCs (the bound's members)
	proof    absint.Stats       // static safety-proof tally, computed once
}

// sanitizersFor is the campaign sanitizer set: KASAN, plus KCSAN when any
// seeded bug is a race.
func sanitizersFor(fw *firmware.Firmware) []string {
	for _, b := range fw.Bugs {
		if b.NeedsKCSAN {
			return []string{"kasan", "kcsan"}
		}
	}
	return []string{"kasan"}
}

// warmUp boots fw and labels its seeded bugs. The machine seed depends only
// on the base seed, so every worker warming the same firmware reaches the
// bit-identical snapshot. noFast asks for the pre-fast-path engine: no
// chaining, no inline shadow check.
func warmUp(fw *firmware.Firmware, baseSeed int64, elide, noFast, noGuide bool) (*warmed, error) {
	// Start from the firmware's own machine config (rehosted images carry
	// their synthesized bridge device there) and layer the campaign tuning
	// on top.
	mcfg := fw.Machine
	mcfg.MaxHarts = 2
	mcfg.Seed = uint64(baseSeed) + 1
	mcfg.NoChain = noFast
	inst, err := core.New(core.Config{
		Image:          fw.Image,
		Sanitizers:     sanitizersFor(fw),
		StopOnReport:   true,
		Machine:        mcfg,
		KCSAN:          san.KCSANConfig{SampleInterval: 13, Delay: 600},
		Elide:          elide,
		NoRaceGuidance: noGuide,
		NoInlineCheck:  noFast,
	})
	if err != nil {
		return nil, fmt.Errorf("exps: %s: %w", fw.Name, err)
	}
	if err := inst.Boot(200_000_000); err != nil {
		return nil, fmt.Errorf("exps: %s: %w", fw.Name, err)
	}
	inst.Snapshot()

	// Ground-truth labelling: replay each seeded trigger once to learn the
	// crash signature it produces — this is how campaign findings are
	// attributed even on stripped firmware, where reports carry raw
	// addresses instead of function names.
	w := &warmed{inst: inst, sigToBug: map[string]*firmware.Bug{}}
	// The static reachability report bounds what any campaign on this
	// firmware can cover; computed once here so every runOne shares it.
	if an, err := static.Analyze(fw.Image); err == nil {
		w.reach = an.Reach()
		w.leaders = an.ReachableLeaders()
		// The safety-proof tally feeds the stats table's `prove` column. It
		// is a property of the image alone, so it is computed here once.
		w.proof = absint.Analyze(an, absint.Options{}).Stats
	}
	for i := range fw.Bugs {
		b := &fw.Bugs[i]
		if b.NeedsKCSAN {
			continue // races are attributed by function name below
		}
		inst.Restore()
		res := inst.Exec(b.Trigger, 100_000_000)
		if len(res.Reports) > 0 {
			w.sigToBug[res.Reports[0].Signature()] = b
		}
	}
	return w, nil
}

// runExtras carries the optional observability attachments of one campaign
// run: the worker's timeline sampler (already Reset for this job) and a
// wall-clock crash notification hook for the monitor.
type runExtras struct {
	tl      *timeline.Sampler
	onCrash func(*fuzz.Crash)
}

// runOne executes one campaign with the given derived seed on the warmed
// deployment. The Restore+Reseed pair makes the outcome a pure function of
// (firmware, base seed, campaign seed, execs) — independent of whatever
// ran on the pooled machine before.
func (w *warmed) runOne(fw *firmware.Firmware, seed int64, execs int) (*Campaign, error) {
	return w.runX(fw, seed, execs, runExtras{})
}

// runX is runOne with observability extras attached.
func (w *warmed) runX(fw *firmware.Firmware, seed int64, execs int, x runExtras) (*Campaign, error) {
	inst := w.inst
	before := inst.Machine.Counters()
	inst.Restore()
	inst.Machine.Reseed(uint64(seed))
	if x.tl != nil {
		// The timeline samples translate/chain counters into a
		// determinism-bearing artifact, so the pooled machine's TB cache
		// and exit chains must start cold: a second campaign on a warm
		// machine would otherwise translate less and chain more than the
		// same campaign run first, and the merged timeline would depend on
		// worker count. Guest-visible outcomes are unchanged.
		inst.Machine.FlushTBs()
	}

	fcfg := fuzz.Config{
		Instance:          inst,
		Seeds:             fw.Seeds,
		Seed:              seed,
		MaxExecs:          execs,
		ReachableLeaders:  w.leaders,
		ProvenAccesses:    w.proof.ReachableProven,
		ReachableAccesses: w.proof.ReachableAccesses,
	}
	if fw.Frontend == firmware.FrontendSyscall {
		fcfg.Frontend = fuzz.FrontendSyscall
		fcfg.Syscalls = len(fw.Syscalls)
	} else {
		fcfg.Frontend = fuzz.FrontendBytes
		// Byte inputs are cheap to execute and the parsers gate on multiple
		// header bytes; give the mutation-driven frontend a larger budget.
		fcfg.MaxExecs = execs * 2
	}
	fcfg.Timeline = x.tl
	f, err := fuzz.New(fcfg)
	if err != nil {
		return nil, err
	}
	f.OnCrash = x.onCrash
	res := f.Run()

	c := &Campaign{Firmware: fw, Stats: res.Stats, Corpus: res.Corpus, Raw: res,
		Engine: inst.Machine.Counters().Sub(before)}
	if x.tl != nil {
		c.Timeline = x.tl.Samples()
		c.TimelineMarks = x.tl.Marks()
		c.TimelineInterval = x.tl.Interval()
	}
	foundFns := map[string]bool{}
	for _, crash := range res.Crashes {
		if crash.Report == nil {
			continue
		}
		seeded := w.sigToBug[crash.Signature]
		if seeded == nil {
			seeded = seededBug(fw, locationFn(crash.Report.Location))
		}
		if seeded == nil || foundFns[seeded.Fn] {
			continue
		}
		foundFns[seeded.Fn] = true
		c.Found = append(c.Found, FoundBug{
			Firmware: fw.Name, BaseOS: fw.BaseOS, Arch: fw.Arch.String(),
			Location: seeded.Location, Fn: seeded.Fn,
			Class: crash.Report.Bug.Short(), Execs: crash.Execs,
		})
	}
	for _, b := range fw.Bugs {
		if !foundFns[b.Fn] {
			c.Missed = append(c.Missed, b.Fn)
		}
	}
	sort.Slice(c.Found, func(i, j int) bool { return c.Found[i].Fn < c.Found[j].Fn })
	return c, nil
}

// RunCampaign fuzzes one firmware with EMBSAN attached, exactly like the
// paper's evaluation: Syzkaller-style programs for Embedded Linux,
// Tardis-style byte inputs for the RTOS firmware, KCSAN enabled where the
// firmware can race. It is the serial single-campaign path; the result
// equals campaign index 0 of a set run.
func RunCampaign(fw *firmware.Firmware, opts CampaignOptions) (*Campaign, error) {
	if opts.Execs == 0 {
		opts.Execs = 30000
	}
	w, err := warmUp(fw, opts.Seed, opts.Elide, opts.NoFastPaths, false)
	if err != nil {
		return nil, err
	}
	if opts.Forensics {
		w.inst.ArmForensics(true)
	}
	var x runExtras
	if opts.Timeline {
		x.tl = timeline.NewSampler(opts.TimelineInterval, opts.TimelineSamples)
		x.tl.Reset(nil, timeline.DetectOptions{StallSamples: opts.StallSamples})
	}
	return w.runX(fw, sched.Split(opts.Seed, 0), opts.Execs, x)
}

// CampaignRun is the merged outcome of a scheduled campaign set.
type CampaignRun struct {
	Campaigns []*Campaign // in campaign-index order
	Workers   []sched.WorkerStats
}

// RunCampaignSet fuzzes every firmware in fws (nil = all Table 1 firmware)
// opts.Repeats times each on the parallel executor. Campaign index i covers
// firmware i/Repeats with seed sched.Split(opts.Seed, i); the merged result
// is bit-identical for every worker count.
func RunCampaignSet(fws []*firmware.Firmware, opts CampaignOptions) (*CampaignRun, error) {
	if opts.Execs == 0 {
		opts.Execs = 30000
	}
	if opts.Repeats <= 0 {
		opts.Repeats = 1
	}
	if fws == nil {
		var err error
		fws, err = firmware.BuildAll()
		if err != nil {
			return nil, err
		}
	}
	n := len(fws) * opts.Repeats
	out := make([]*Campaign, n)
	ws, err := sched.Run(sched.Options{Workers: opts.Workers}, n, func(w *sched.Worker, i int) error {
		fw := fws[i/opts.Repeats]
		// Elided and non-elided deployments of the same firmware must not
		// share a pooled machine: their texts and probe sets differ.
		key := fw.Name
		if opts.Elide {
			key += "+elide"
		}
		if opts.NoFastPaths {
			key += "+nofp"
		}
		if opts.Forensics {
			// Forensic arming stamps chunk backtraces as the campaign runs;
			// a pooled machine must not leak stamped chunks into an unarmed
			// campaign of the same firmware (or vice versa).
			key += "+forensics"
		}
		wm, err := sched.Pooled(w, key, func() (*warmed, error) {
			return warmUp(fw, opts.Seed, opts.Elide, opts.NoFastPaths, false)
		})
		if err != nil {
			return err
		}
		var ring *obs.Ring
		if opts.Trace {
			events := opts.TraceEvents
			if events <= 0 {
				events = obs.DefaultRingEvents
			}
			ring = w.TraceRing(events)
			ring.Reset()
			wm.inst.SetTrace(ring)
		}
		if opts.Forensics {
			wm.inst.ArmForensics(true)
		}
		var x runExtras
		if opts.Timeline {
			x.tl = w.TimelineSampler(opts.TimelineInterval, opts.TimelineSamples)
			x.tl.Reset(ring, timeline.DetectOptions{StallSamples: opts.StallSamples})
			if m := opts.Monitor; m != nil {
				idx, name := i, fw.Name
				x.tl.SetLive(func(s timeline.Sample) { m.publishSample(idx, name, s) })
				x.tl.SetLiveMark(func(mk timeline.Mark) { m.publishMark(idx, name, mk) })
			}
		}
		if m := opts.Monitor; m != nil {
			idx, name := i, fw.Name
			x.onCrash = func(cr *fuzz.Crash) { m.publishCrash(idx, name, cr) }
		}
		c, err := wm.runX(fw, sched.Split(opts.Seed, i), opts.Execs, x)
		if opts.Forensics {
			wm.inst.ArmForensics(false)
		}
		if ring != nil {
			wm.inst.SetTrace(nil)
		}
		if err != nil {
			return err
		}
		out[i] = c
		if ring != nil {
			c.Trace = ring.Events()
			c.TraceDropped = ring.Dropped()
		}
		if opts.Trace || opts.Metrics {
			c.Phases = obs.Phases{
				Translate: c.Engine.TransInsts,
				Execute:   c.Stats.Insts,
				Sanitize:  c.Engine.SanckTraps + c.Engine.MemProbes,
				Snapshot:  c.Engine.RestorePages,
			}
		}
		for _, crash := range c.Raw.Crashes {
			if crash.Report != nil {
				crash.Report.Worker = w.ID()
			}
		}
		ctr := w.Inst()
		ctr.Jobs.Inc()
		ctr.Execs.Add(uint64(c.Stats.Execs))
		ctr.Resets.Add(c.Engine.Restores)
		ctr.TBHits.Add(c.Engine.TBHits)
		ctr.Reports.Add(uint64(len(c.Raw.Crashes)))
		for _, crash := range c.Raw.Crashes {
			if r := crash.Report; r != nil {
				ctr.Frames.Add(uint64(len(r.Stack) + len(r.AllocStack) + len(r.FreeStack)))
			}
		}
		if m := opts.Monitor; m != nil {
			m.publishCampaign(i, c)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &CampaignRun{Campaigns: out, Workers: ws}, nil
}

// RunAllCampaigns fuzzes every Table 1 firmware on the parallel executor.
func RunAllCampaigns(opts CampaignOptions) ([]*Campaign, error) {
	run, err := RunCampaignSet(nil, opts)
	if err != nil {
		return nil, err
	}
	return run.Campaigns, nil
}

func locationFn(loc string) string {
	if i := strings.IndexByte(loc, '+'); i > 0 {
		return loc[:i]
	}
	return loc
}

func seededBug(fw *firmware.Firmware, fn string) *firmware.Bug {
	for i := range fw.Bugs {
		if fw.Bugs[i].Fn == fn {
			return &fw.Bugs[i]
		}
	}
	return nil
}

// Table 3 classes, in the paper's column order.
var table3Classes = []string{"OOB Access", "UAF", "Double Free", "Race"}

// FormatTable3 renders the per-firmware classification of found bugs.
func FormatTable3(cs []*Campaign) string {
	var b strings.Builder
	b.WriteString("Table 3: classification of new bugs found by EMBSAN\n")
	fmt.Fprintf(&b, "%-24s %-11s %-5s %-12s %-5s\n", "Firmware", "OOB Access", "UAF", "Double Free", "Race")
	total := 0
	for _, c := range cs {
		counts := map[string]int{}
		for _, f := range c.Found {
			counts[f.Class]++
			total++
		}
		cell := func(class string) string {
			if n := counts[class]; n > 0 {
				return fmt.Sprintf("%d", n)
			}
			return ""
		}
		fmt.Fprintf(&b, "%-24s %-11s %-5s %-12s %-5s\n", c.Firmware.Name,
			cell("OOB Access"), cell("UAF"), cell("Double Free"), cell("Race"))
	}
	fmt.Fprintf(&b, "Total: %d bugs\n", total)
	return b.String()
}

// FormatTable4 renders the full bug list.
func FormatTable4(cs []*Campaign) string {
	var b strings.Builder
	b.WriteString("Table 4: previously unknown bugs found during fuzzing\n")
	fmt.Fprintf(&b, "%-24s %-15s %-8s %-36s %-12s\n", "Firmware", "Base OS", "Arch", "Location", "Bug Type")
	for _, c := range cs {
		for _, f := range c.Found {
			fmt.Fprintf(&b, "%-24s %-15s %-8s %-36s %-12s\n",
				f.Firmware, f.BaseOS, f.Arch, f.Location, f.Class)
		}
	}
	return b.String()
}

// JobTraces collects the campaigns' captured event streams in campaign-index
// order — the canonical merged trace the exporters consume.
func JobTraces(cs []*Campaign) []obs.JobTrace {
	var out []obs.JobTrace
	for i, c := range cs {
		if c == nil || len(c.Trace) == 0 {
			continue
		}
		out = append(out, obs.JobTrace{ID: i, Events: c.Trace, Dropped: c.TraceDropped})
	}
	return out
}

// JobTimelines collects the campaigns' sampled timelines in campaign-index
// order — the canonical merged timeline the EMTL codec and the exporters
// consume. Byte-identical across worker counts because each campaign's
// samples are.
func JobTimelines(cs []*Campaign) []timeline.JobTimeline {
	var out []timeline.JobTimeline
	for i, c := range cs {
		if c == nil || len(c.Timeline) == 0 {
			continue
		}
		out = append(out, timeline.JobTimeline{
			ID: i, Interval: c.TimelineInterval,
			Samples: c.Timeline, Marks: c.TimelineMarks,
		})
	}
	return out
}

// wallClockRates matches the padded throughput tokens FormatCampaignStats
// renders from wall-clock worker lifetimes ("  123.4/s", and the "-/s" it
// prints for a zero lifetime). The "execs/s" column header has no digit
// before the slash, so it survives masking.
var wallClockRates = regexp.MustCompile(` *[0-9.\-]+/s`)

// MaskWallClock replaces every wall-clock throughput token in a formatted
// stats table with a constant so byte-identity oracles can compare outputs
// across runs and worker counts: throughput is real time, everything else
// in the table is virtual and deterministic.
func MaskWallClock(s string) string {
	return wallClockRates.ReplaceAllString(s, " -/s")
}

// FormatCampaignStats summarises fuzzing effort, and — when the campaigns
// ran on the parallel executor — the per-worker pool accounting. When any
// campaign carries a virtual-time phase breakdown (CampaignOptions.Trace or
// .Metrics), per-phase columns are appended; when any campaign carries a
// sampled timeline, a stall@ column reports the virtual clock of its first
// detected coverage plateau. Only the worker table's execs/s column reads
// wall clock — byte-identity oracles mask it with MaskWallClock; every
// other cell is deterministic.
func FormatCampaignStats(cs []*Campaign, workers ...sched.WorkerStats) string {
	phases := false
	stalls := false
	for _, c := range cs {
		if c.Phases.Any() {
			phases = true
		}
		if len(c.Timeline) > 0 {
			stalls = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %8s %8s %7s %7s %8s %7s", "Firmware", "execs", "corpus", "blocks", "cover", "prove", "found", "missed")
	if phases {
		fmt.Fprintf(&b, " %10s %12s %10s %9s", "translate", "execute", "sanitize", "snapshot")
	}
	if stalls {
		fmt.Fprintf(&b, " %12s", "stall@")
	}
	b.WriteString("\n")
	for _, c := range cs {
		cover := "-"
		if frac, ok := c.Stats.Coverage(); ok {
			cover = fmt.Sprintf("%.1f%%", frac*100)
		}
		prove := "-"
		if frac, ok := c.Stats.ProofDensity(); ok {
			prove = fmt.Sprintf("%.1f%%", frac*100)
		}
		fmt.Fprintf(&b, "%-24s %8d %8d %8d %7s %7s %8d %7d", c.Firmware.Name,
			c.Stats.Execs, c.Stats.CorpusSize, c.Stats.CoverBlocks, cover, prove, len(c.Found), len(c.Missed))
		if phases {
			fmt.Fprintf(&b, " %10d %12d %10d %9d",
				c.Phases.Translate, c.Phases.Execute, c.Phases.Sanitize, c.Phases.Snapshot)
		}
		if stalls {
			cell := "-"
			if at, ok := timeline.FirstStall(c.TimelineMarks); ok {
				cell = fmt.Sprintf("%d", at)
			}
			fmt.Fprintf(&b, " %12s", cell)
		}
		b.WriteString("\n")
	}
	if len(workers) > 0 {
		fmt.Fprintf(&b, "\nWorker pool (%d workers):\n", len(workers))
		fmt.Fprintf(&b, "%-8s %9s %10s %9s %12s %8s %10s\n", "worker", "jobs", "execs", "resets", "tb-hits", "reports", "execs/s")
		rate := func(c sched.Counters) string {
			if c.Elapsed <= 0 {
				return "-/s"
			}
			return fmt.Sprintf("%.1f/s", float64(c.Execs)/c.Elapsed.Seconds())
		}
		for _, w := range workers {
			fmt.Fprintf(&b, "%-8d %9d %10d %9d %12d %8d %10s\n",
				w.Worker, w.Jobs, w.Execs, w.Resets, w.TBHits, w.Reports, rate(w.Counters))
		}
		t := sched.MergeStats(workers)
		fmt.Fprintf(&b, "%-8s %9d %10d %9d %12d %8d %10s\n", "total", t.Jobs, t.Execs, t.Resets, t.TBHits, t.Reports, rate(t))
	}
	return b.String()
}
