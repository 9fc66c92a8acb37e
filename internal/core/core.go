// Package core orchestrates EMBSAN's two-phase workflow: the pre-testing
// probing phase (distil the sanitizer specifications, probe the platform
// configuration, compile the initial state) and the testing phase (attach
// the Common Sanitizer Runtime to the emulator and run the firmware under
// fuzzing or replay).
package core

import (
	"fmt"

	"embsan/internal/distill"
	"embsan/internal/dsl"
	"embsan/internal/emu"
	"embsan/internal/kasm"
	"embsan/internal/obs"
	"embsan/internal/probe"
	"embsan/internal/san"
	"embsan/internal/static"
	"embsan/internal/static/races"
)

// Config describes one EMBSAN deployment on one firmware image.
type Config struct {
	Image *kasm.Image
	// Sanitizers names the reference sanitizers to distil and merge
	// (e.g. "kasan", "kcsan"). Empty means {"kasan"}.
	Sanitizers []string
	// Machine overrides the emulator configuration.
	Machine emu.Config
	// Probe overrides the probing options (hints for closed firmware, etc.).
	Probe probe.Options
	// PlatformText, when non-empty, is pre-prepared DSL source (a platform
	// block and optionally an init block) used instead of running the
	// Prober — the tester-prepared descriptions of the paper's §3.4.
	PlatformText string
	// StopOnReport stops the machine at the first sanitizer report.
	StopOnReport bool
	// Quarantine overrides the KASAN quarantine capacity.
	Quarantine int
	// KCSAN overrides the concurrency-sanitizer tuning. Zero values fall
	// back to the distilled resource parameters.
	KCSAN san.KCSANConfig
	// NoSanitizer runs the firmware bare (baseline measurement) or relies
	// on a natively-sanitized build's in-guest runtime.
	NoSanitizer bool
	// NoRaceGuidance disables the static lockset guidance of the
	// concurrency sanitizer: KCSAN samples uniformly instead of boosting
	// unprotected sites and never arming at proven-safe ones. This is the
	// measurement baseline for the guided-vs-uniform benchmarks.
	NoRaceGuidance bool
	// NoInlineCheck leaves the in-template shadow check unarmed, so every
	// access site calls the sanitizer delegate: the paper's mechanism, which
	// Figure 2 measures and the fast-path oracles compare against. Chaining
	// has its own switch in Machine.
	NoInlineCheck bool
}

// Instance is a prepared EMBSAN deployment: an emulated machine with the
// sanitizer runtime attached and the probing artefacts retained.
type Instance struct {
	Machine *emu.Machine
	Runtime *san.Runtime // nil when NoSanitizer
	Spec    *dsl.Sanitizer
	Probed  *probe.Result // nil when NoSanitizer

	img   *kasm.Image
	armed bool // the in-template shadow check is armed
}

// New runs the pre-testing probing phase and prepares the testing phase.
func New(cfg Config) (*Instance, error) {
	if cfg.Image == nil {
		return nil, fmt.Errorf("core: no firmware image")
	}
	img := cfg.Image
	m, err := emu.New(img, cfg.Machine)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Machine: m, img: img}
	if cfg.NoSanitizer {
		return inst, nil
	}

	names := cfg.Sanitizers
	if len(names) == 0 {
		names = []string{"kasan"}
	}
	spec, err := distill.DistillMerged(names...)
	if err != nil {
		return nil, err
	}
	inst.Spec = spec

	var platformText string
	if cfg.PlatformText != "" {
		platformText = cfg.PlatformText
	} else {
		// Dry runs inside the Prober must see the same extra devices as
		// the testing machine — a rehosted image never boots without its
		// synthesized bridge.
		if cfg.Probe.Machine.Devices == nil {
			cfg.Probe.Machine.Devices = cfg.Machine.Devices
		}
		probed, err := probe.Probe(cfg.Image, cfg.Probe)
		if err != nil {
			return nil, err
		}
		inst.Probed = probed
		platformText = probed.Text()
	}

	// The components communicate in the DSL, exactly like the paper's
	// pipeline: parse the (probed or tester-prepared) descriptions.
	file, err := dsl.Parse(platformText)
	if err != nil {
		return nil, fmt.Errorf("core: platform descriptions do not parse: %w", err)
	}
	if len(file.Platforms) != 1 {
		return nil, fmt.Errorf("core: platform descriptions must contain exactly one platform block")
	}

	opts := san.Options{
		Spec:         spec,
		Platform:     file.Platforms[0],
		StopOnReport: cfg.StopOnReport,
		Quarantine:   cfg.Quarantine,
		KCSAN:        cfg.KCSAN,
	}
	if len(file.Inits) > 0 {
		opts.Init = file.Inits[0]
	}
	if cfg.Image.Meta.Sanitize == kasm.SanEmbsanC {
		opts.Hypercalls = true
		opts.Globals = cfg.Image.Meta.Globals
	}
	// Derive engine tuning from the distilled resource parameters unless
	// the caller overrode them.
	for _, r := range spec.Resources {
		switch r.Name {
		case "quarantine":
			if opts.Quarantine == 0 {
				opts.Quarantine = int(r.Params["slots"])
			}
		case "watchpoints":
			if opts.KCSAN.Slots == 0 {
				opts.KCSAN.Slots = int(r.Params["slots"])
			}
		case "delay":
			if opts.KCSAN.Delay == 0 {
				// The reference expresses the stall in microseconds; scale
				// to instructions on the emulated core.
				opts.KCSAN.Delay = uint64(r.Params["task"]) * 16
			}
		}
	}

	rt, err := san.Attach(m, opts)
	if err != nil {
		return nil, err
	}
	inst.Runtime = rt

	var raceWeights map[uint32]uint8
	if rt.KCSANEngine() != nil && !cfg.NoRaceGuidance && !img.Stripped && len(img.Symbols) > 0 {
		// Lockset guidance for the concurrency sanitizer: boost watchpoint
		// arming at statically unprotected/mixed sites, never arm at proven
		// always-protected or hart-local ones.
		if an, err := static.Analyze(img); err == nil {
			rr := races.Analyze(an, races.Options{Taint: runtimeTaint(opts)})
			raceWeights = rr.SitePriorities(races.DefaultBoost)
		}
	}
	inst.armed = rt.SetSitePolicy(raceWeights, !cfg.NoInlineCheck)
	return inst, nil
}

// runtimeTaint collects the address ranges the runtime may poison at run
// time: the probed heaps plus every poisoned or allocated init range.
func runtimeTaint(opts san.Options) []kasm.AddrRange {
	var taint []kasm.AddrRange
	for _, h := range opts.Platform.Heaps {
		taint = append(taint, kasm.AddrRange{Start: h.Start, End: h.End})
	}
	if opts.Init != nil {
		// Allocations get runtime redzones on both sides; pad the taint so
		// redzone-adjacent globals are not proven against stale layout.
		const slack = 64
		for _, op := range opts.Init.Ops {
			switch op.Kind {
			case dsl.InitPoison, dsl.InitAlloc:
				start := op.Addr
				if start >= slack {
					start -= slack
				} else {
					start = 0
				}
				taint = append(taint, kasm.AddrRange{Start: start, End: op.Addr + op.Size + slack})
			}
		}
	}
	return taint
}

// Boot runs the firmware until its ready-to-run point.
func (i *Instance) Boot(budget uint64) error {
	prev := i.Machine.ReadyHook
	i.Machine.ReadyHook = func(m *emu.Machine) {
		if prev != nil {
			prev(m)
		}
		m.RequestStop()
	}
	r := i.Machine.Run(budget)
	i.Machine.ReadyHook = prev
	if !i.Machine.ReadyReached {
		return fmt.Errorf("core: firmware %q did not reach ready (stop=%v, fault=%v)",
			i.img.Name, r, i.Machine.Fault())
	}
	i.Machine.ClearStop()
	return nil
}

// Run resumes execution with the given instruction budget (0 = unlimited).
func (i *Instance) Run(budget uint64) emu.StopReason {
	return i.Machine.Run(budget)
}

// Reports returns the sanitizer findings: the host runtime's reports, plus
// any reports a natively-sanitized guest pushed through the report device.
func (i *Instance) Reports() []*san.Report {
	var out []*san.Report
	if i.Runtime != nil {
		out = append(out, i.Runtime.Reports()...)
	}
	out = append(out, san.ConvertNative(i.img, i.Machine.SanDev.Reports)...)
	return out
}

// Snapshot captures machine and sanitizer state in lockstep.
func (i *Instance) Snapshot() {
	i.Machine.Snapshot()
	if i.Runtime != nil {
		i.Runtime.Snapshot()
	}
}

// Restore rewinds machine and sanitizer state in lockstep.
func (i *Instance) Restore() {
	i.Machine.Restore()
	if i.Runtime != nil {
		i.Runtime.Restore()
	}
}

// SetTrace attaches (or, with nil, detaches) an obs event ring to the whole
// deployment: the emulator's TB/dispatch/snapshot events and the sanitizer
// runtime's allocator/shadow/report events land in one virtual-time stream.
func (i *Instance) SetTrace(r *obs.Ring) {
	i.Machine.SetTrace(r)
	if i.Runtime != nil {
		i.Runtime.SetTrace(r)
	}
}

// ArmForensics turns forensic provenance capture on or off for the whole
// deployment: chunk alloc/free backtraces, EvFrame children on traced
// allocator/report events, and EvQuarantine transitions. No-op without a
// sanitizer runtime.
func (i *Instance) ArmForensics(on bool) {
	if i.Runtime != nil {
		i.Runtime.ArmForensics(on)
	}
}

// EnableInlineFastPath reports whether New armed the in-template shadow
// check; it neither re-arms nor flushes, and pcs is ignored. It remains only
// because perfbench/workload.go calls it, and goes with the next change to
// the benchmark.
func (i *Instance) EnableInlineFastPath(pcs []uint32) bool { return i.armed }

// Image returns the firmware image under test.
func (i *Instance) Image() *kasm.Image { return i.img }

// ExecResult is the outcome of one input execution.
type ExecResult struct {
	Stop     emu.StopReason
	Done     bool   // the guest executor signalled completion
	DoneCode uint32 // the guest-reported result
	Reports  []*san.Report
	Fault    *emu.Fault
	Insts    uint64 // guest instructions consumed
}

// Crashed reports whether the execution surfaced a bug: a sanitizer report
// or a raw guest fault.
func (r *ExecResult) Crashed() bool { return len(r.Reports) > 0 || r.Fault != nil }

// Exec posts one input to the firmware's executor mailbox and runs until
// the guest signals completion, something stops the machine, or the
// instruction budget runs out. The caller is responsible for Restore
// between executions when isolation is wanted.
func (i *Instance) Exec(input []byte, budget uint64) ExecResult {
	start := i.Machine.ICount()
	i.Machine.Mailbox.Post(input)
	const slice = 4096
	remaining := budget
	for {
		step := uint64(slice)
		if budget > 0 && remaining < step {
			step = remaining
		}
		r := i.Machine.Run(step)
		if done, code := i.Machine.Mailbox.Done(); done {
			return ExecResult{
				Stop: r, Done: true, DoneCode: code,
				Reports: i.Reports(), Fault: i.Machine.Fault(),
				Insts: i.Machine.ICount() - start,
			}
		}
		if r != emu.StopBudget || (budget > 0 && i.Machine.ICount()-start >= budget) {
			return ExecResult{
				Stop: r, Reports: i.Reports(), Fault: i.Machine.Fault(),
				Insts: i.Machine.ICount() - start,
			}
		}
		if budget > 0 {
			remaining = budget - (i.Machine.ICount() - start)
		}
	}
}
