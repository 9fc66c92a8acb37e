package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"embsan"
	"embsan/internal/core"
	"embsan/internal/fuzz"
	"embsan/internal/guest/firmware"
	"embsan/internal/obs"
	"embsan/internal/san"
	"embsan/internal/static"
	"embsan/internal/static/absint"
)

// workload is one benchmark input family. README.md records why each was
// chosen and which layers it stresses.
type workload struct {
	name   string
	fws    []string
	replay bool
	// execs is the per-campaign budget (exps.CampaignOptions.Execs); byte
	// frontends run twice that many executions. A replay workload replays
	// the corpus one campaign of that budget saved. repeats is the number
	// of campaigns per firmware in one round: the first warms the
	// deployment and is not timed.
	execs, repeats int
	// passes is the number of replay passes over the corpus in one timed
	// window (replay workloads only).
	passes int
}

var linuxFirmware = []string{
	"OpenWRT-armvirt", "OpenWRT-bcm63xx", "OpenWRT-ipq807x", "OpenWRT-mt7629",
	"OpenWRT-rtl839x", "OpenWRT-x86_64", "OpenHarmony-rk3566",
}

var rtosFirmware = []string{
	"OpenHarmony-stm32mp1", "OpenHarmony-stm32f407", "InfiniTime", "TP-Link WDR-7660",
}

var workloads = map[string]*workload{
	"campaign-linux": {name: "campaign-linux", fws: linuxFirmware, execs: 4000, repeats: 3},
	"campaign-rtos":  {name: "campaign-rtos", fws: rtosFirmware, execs: 15000, repeats: 5},
	"replay-linux":   {name: "replay-linux", fws: linuxFirmware, replay: true, execs: 4000, passes: 20},
}

// workloadOrder fixes the order the recorder visits the workloads in.
var workloadOrder = []string{"campaign-linux", "campaign-rtos", "replay-linux"}

// inputSets is how many input sets have a recorded fingerprint. The seed
// selects one of them, so every seed has a recorded reference.
const inputSets = 32

func inputSet(seed int64) int {
	s := int(seed % inputSets)
	if s < 0 {
		s += inputSets
	}
	return s
}

// baseSeed is the campaign base seed (exps.CampaignOptions.Seed) and the
// machine seed family of an input set.
func baseSeed(set int) int64 { return 1000 + int64(set) }

// Deployment constants mirrored from the campaign driver in internal/exps.
// The traced run checks that the mirror reproduces the campaign driver's
// deterministic counts exactly, so a drift fails loudly.
const (
	bootBudget          = 200_000_000
	labelBudget         = 100_000_000
	execBudget          = 2_000_000 // fuzz.Config default
	inlineHotDispatches = 4
)

func buildFirmware(names []string) ([]*firmware.Firmware, error) {
	fws := make([]*firmware.Firmware, 0, len(names))
	for _, n := range names {
		fw, err := firmware.Build(n)
		if err != nil {
			return nil, err
		}
		fws = append(fws, fw)
	}
	return fws, nil
}

func sanitizersFor(fw *firmware.Firmware) []string {
	for _, b := range fw.Bugs {
		if b.NeedsKCSAN {
			return []string{"kasan", "kcsan"}
		}
	}
	return []string{"kasan"}
}

// deployment is one booted, snapshotted firmware deployment with the
// set-up time of each layer recorded.
type deployment struct {
	fw       *firmware.Firmware
	inst     *core.Instance
	sigToBug map[string]*firmware.Bug
	leaders  []uint32
	proof    absint.Stats

	newT, bootT, analyzeT, labelT time.Duration
}

// deployCampaign prepares fw the way the campaign driver's warm-up does:
// core.New, Boot, Snapshot, static analysis, trigger labelling and
// arming the inline shadow fast path at the warm-up's hot sites.
func deployCampaign(fw *firmware.Firmware, base int64, tr *tracer) (*deployment, error) {
	mcfg := fw.Machine
	mcfg.MaxHarts = 2
	mcfg.Seed = uint64(base) + 1
	d := &deployment{fw: fw, sigToBug: map[string]*firmware.Bug{}}

	t := time.Now()
	inst, err := core.New(core.Config{
		Image:        fw.Image,
		Sanitizers:   sanitizersFor(fw),
		StopOnReport: true,
		Machine:      mcfg,
		KCSAN:        san.KCSANConfig{SampleInterval: 13, Delay: 600},
	})
	d.newT = time.Since(t)
	tr.record("core.new", fw.Name, t, d.newT)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fw.Name, err)
	}
	d.inst = inst

	prof := obs.NewProfile()
	inst.Machine.SetProfile(prof)
	t = time.Now()
	err = inst.Boot(bootBudget)
	inst.Snapshot()
	d.bootT = time.Since(t)
	tr.record("core.boot", fw.Name, t, d.bootT)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fw.Name, err)
	}

	t = time.Now()
	if an, err := static.Analyze(fw.Image); err == nil {
		d.leaders = an.ReachableLeaders()
		d.proof = absint.Analyze(an, absint.Options{}).Stats
	}
	d.analyzeT = time.Since(t)
	tr.record("static.analyze", fw.Name, t, d.analyzeT)

	t = time.Now()
	for i := range fw.Bugs {
		b := &fw.Bugs[i]
		if b.NeedsKCSAN {
			continue
		}
		inst.Restore()
		res := inst.Exec(b.Trigger, labelBudget)
		if len(res.Reports) > 0 {
			d.sigToBug[res.Reports[0].Signature()] = b
		}
	}
	inst.Machine.SetProfile(nil)
	var hot []uint32
	for _, site := range prof.DispatchSites(nil) {
		if site.Count >= inlineHotDispatches {
			hot = append(hot, site.PC)
		}
	}
	if len(hot) > 0 {
		inst.EnableInlineFastPath(hot)
	}
	d.labelT = time.Since(t)
	tr.record("core.label", fw.Name, t, d.labelT)
	return d, nil
}

// deployReplay prepares fw through the public library flow a user's triage
// loop takes: embsan.New, Boot, Snapshot. noSan deploys the same image bare,
// the baseline the sanitizer's per-exec cost is measured against.
func deployReplay(fw *firmware.Firmware, base int64, noSan bool, tr *tracer) (*deployment, error) {
	mcfg := fw.Machine
	mcfg.MaxHarts = 2
	mcfg.Seed = uint64(base) + 1
	d := &deployment{fw: fw, sigToBug: map[string]*firmware.Bug{}}
	t := time.Now()
	inst, err := embsan.New(embsan.Config{
		Image:        fw.Image,
		Sanitizers:   sanitizersFor(fw),
		StopOnReport: true,
		Machine:      mcfg,
		NoSanitizer:  noSan,
	})
	d.newT = time.Since(t)
	tr.record("core.new", fw.Name, t, d.newT)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fw.Name, err)
	}
	d.inst = inst
	t = time.Now()
	err = inst.Boot(bootBudget)
	inst.Snapshot()
	d.bootT = time.Since(t)
	tr.record("core.boot", fw.Name, t, d.bootT)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fw.Name, err)
	}
	return d, nil
}

// attribute maps a crash report to the seeded bug it reached, the way the
// campaign driver does: by the signature trigger labelling recorded, else by
// the function named in the report's location.
func attribute(fw *firmware.Firmware, sigToBug map[string]*firmware.Bug, r *san.Report) string {
	if r == nil {
		return ""
	}
	if b := sigToBug[r.Signature()]; b != nil {
		return b.Fn
	}
	fn := r.Location
	if i := strings.IndexByte(fn, '+'); i > 0 {
		fn = fn[:i]
	}
	for _, b := range fw.Bugs {
		if b.Fn == fn {
			return b.Fn
		}
	}
	return ""
}

// outcome is the deterministic result of one replayed input: "done:<code>",
// the crash signature, or the stop reason when neither happened.
func outcome(r core.ExecResult) string {
	switch {
	case len(r.Reports) > 0:
		return r.Reports[0].Signature()
	case r.Fault != nil:
		return fmt.Sprintf("fault:%s:%#x", r.Fault.Kind, r.Fault.PC)
	case r.Done:
		return fmt.Sprintf("done:%d", r.DoneCode)
	}
	return "stop:" + r.Stop.String()
}

// replayInputs is the replay corpus of one firmware: its seeds, its
// non-race seeded triggers and the corpus a campaign saved.
func replayInputs(fw *firmware.Firmware, corpus [][]byte) [][]byte {
	in := append([][]byte(nil), fw.Seeds...)
	for _, b := range fw.Bugs {
		if !b.NeedsKCSAN {
			in = append(in, b.Trigger)
		}
	}
	return append(in, corpus...)
}

// replaySeed reseeds the machine before every replayed input so each
// input's outcome is independent of the inputs before it.
const replaySeed = 1

// replayOne restores the deployment and executes one input.
func replayOne(inst *core.Instance, input []byte) core.ExecResult {
	inst.Restore()
	inst.Machine.Reseed(replaySeed)
	return inst.Exec(input, execBudget)
}

// counts reads every instrument of reg by name: counters and gauges under
// their own names, histograms as "<name>.count" and "<name>.sum".
func counts(reg *obs.Registry) (map[string]float64, error) {
	var snap struct {
		Counters   map[string]uint64 `json:"counters"`
		Gauges     map[string]int64  `json:"gauges"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
			Sum   uint64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(reg.JSON(), &snap); err != nil {
		return nil, fmt.Errorf("reading metrics registry: %w", err)
	}
	out := map[string]float64{}
	for n, v := range snap.Counters {
		out[n] = float64(v)
	}
	for n, v := range snap.Gauges {
		out[n] = float64(v)
	}
	for n, h := range snap.Histograms {
		out[n+".count"] = float64(h.Count)
		out[n+".sum"] = float64(h.Sum)
	}
	return out, nil
}

// delta returns after-before for the named instruments, failing when an
// instrument is not registered: a renamed counter must break the benchmark
// loudly rather than read as zero.
func delta(before, after map[string]float64, names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, n := range names {
		a, ok := after[n]
		if !ok {
			return nil, fmt.Errorf("instrument %q is not registered", n)
		}
		out[n] = a - before[n]
	}
	return out, nil
}

// fuzzConfig mirrors the campaign driver's per-campaign fuzzer settings.
func fuzzConfig(d *deployment, seed int64, execs int) fuzz.Config {
	cfg := fuzz.Config{
		Instance:          d.inst,
		Seeds:             d.fw.Seeds,
		Seed:              seed,
		MaxExecs:          execs,
		ReachableLeaders:  d.leaders,
		ProvenAccesses:    d.proof.ReachableProven,
		ReachableAccesses: d.proof.ReachableAccesses,
	}
	if d.fw.Frontend == firmware.FrontendSyscall {
		cfg.Frontend = fuzz.FrontendSyscall
		cfg.Syscalls = len(d.fw.Syscalls)
	} else {
		cfg.Frontend = fuzz.FrontendBytes
		cfg.MaxExecs = execs * 2
	}
	return cfg
}
