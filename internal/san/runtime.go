package san

import (
	"fmt"

	"embsan/internal/dsl"
	"embsan/internal/emu"
	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/obs"
)

// Native report kinds written to the SanDev by in-guest sanitizer runtimes.
const (
	NativeKindKASAN = 1 // Info carries the shadow poison code
	NativeKindKCSAN = 2 // Info carries the racing PC
)

// Options configures the Common Sanitizer Runtime for one machine.
type Options struct {
	// Spec is the merged sanitizer specification from the Distiller. It
	// decides which instruction classes and function interceptions are
	// hooked at all.
	Spec *dsl.Sanitizer
	// Platform is the probed platform configuration (heaps, allocator
	// interception points, suppression ranges). Required for EMBSAN-D.
	Platform *dsl.Platform
	// Init is the initial setup routine recorded during the dry run.
	Init *dsl.Init
	// Globals carries the EMBSAN-C build metadata for global redzones.
	Globals []kasm.GlobalMeta
	// Hypercalls enables the dummy sanitizer library fast path (EMBSAN-C).
	Hypercalls bool

	KCSAN        KCSANConfig
	Quarantine   int
	StopOnReport bool
}

// Runtime is the live sanitizer attached to a machine.
type Runtime struct {
	m    *emu.Machine
	opts Options

	kasan *KASAN
	kcsan *KCSAN
	ubsan bool // alignment checking (the adaptability demo of §5)

	// Which event classes the merged spec asked for.
	checkLoads   bool
	checkStores  bool
	checkAtomics bool
	trackAllocs  bool

	enabled  bool
	suppress []dsl.Region

	// armed: the site policy (SetSitePolicy) lets the in-template check
	// guard every unsuppressed site.
	armed bool

	pending map[pendKey][]pendingAlloc

	reports []*Report
	seen    map[string]bool

	// OnReport fires for every new (non-duplicate) report.
	OnReport func(*Report)

	// trace, when non-nil, receives allocator and report events.
	trace *obs.Ring

	// forensics arms full provenance capture: chunk alloc/free backtraces
	// (via the KASAN stacker) and EvFrame/EvQuarantine trace events. Off in
	// normal campaigns — the shadow stack itself is always maintained by
	// the emulator, but copying it per allocator event costs.
	forensics bool

	kasanSnap     *KASANState
	enabledAtSnap bool
}

type pendKey struct {
	hart  int
	entry uint32
}

type pendingAlloc struct {
	size uint32
	ra   uint32
}

// Attach builds the runtime from the DSL artefacts and hooks it into the
// machine: probes are inserted into the translation templates, function
// interception points become PC hooks, and (for EMBSAN-C firmware) the
// dummy sanitizer library hypercalls are redirected to the engines.
func Attach(m *emu.Machine, opts Options) (*Runtime, error) {
	if opts.Spec == nil {
		return nil, fmt.Errorf("san: no sanitizer specification")
	}
	rt := &Runtime{
		m:       m,
		opts:    opts,
		pending: make(map[pendKey][]pendingAlloc),
		seen:    make(map[string]bool),
	}

	wantsKASAN := false
	wantsKCSAN := false
	for _, it := range opts.Spec.Intercepts {
		for _, src := range it.Sources {
			switch src {
			case "kasan":
				wantsKASAN = true
			case "kcsan":
				wantsKCSAN = true
			case "ubsan":
				rt.ubsan = true
			}
		}
		switch it.Kind {
		case dsl.InterceptLoad:
			rt.checkLoads = true
		case dsl.InterceptStore:
			rt.checkStores = true
		case dsl.InterceptAtomic:
			rt.checkAtomics = true
		case dsl.InterceptFunc:
			if it.Action == dsl.ActionAlloc || it.Action == dsl.ActionFree {
				rt.trackAllocs = true
			}
		}
	}
	if !wantsKASAN && !wantsKCSAN && !rt.ubsan {
		// Single-sanitizer specs carry no source annotations; infer from name.
		switch opts.Spec.Name {
		case "kcsan":
			wantsKCSAN = true
		case "ubsan":
			rt.ubsan = true
		default:
			wantsKASAN = true
		}
	}

	if wantsKASAN {
		rt.kasan = NewKASAN(NewShadow(m.RAMSize()), opts.Quarantine)
	}
	if wantsKCSAN {
		rt.kcsan = NewKCSAN(opts.KCSAN, func(addr, size uint32) (uint32, bool) {
			return m.Peek(addr, size)
		})
		// Deterministic guided sampling: arming is a pure function of the
		// machine's virtual clock, its live campaign seed, and the static
		// race-site weights (installed later by the deployment layer's
		// SetSitePolicy; until then every site weighs 1).
		rt.kcsan.SetGuidance(m.ICount, m.Seed)
	}

	if opts.Platform != nil {
		rt.suppress = append(rt.suppress, opts.Platform.Suppress...)
	}

	// Instruction-class interception: probes in the translation templates.
	probes := emu.ProbeSet{}
	if rt.checkLoads || rt.checkStores || rt.checkAtomics {
		if opts.Hypercalls {
			// EMBSAN-C: only the compile-time SANCK sites trap; generic
			// load/store probes stay uninstalled, which is where the
			// EMBSAN-C speed advantage comes from.
			probes.Sanck = rt.onMem
		} else {
			probes.Mem = rt.onMem
		}
	}
	m.SetProbes(probes)
	rt.SetSitePolicy(nil, false)

	// Function interception (EMBSAN-D): the Prober-discovered allocator
	// entry and exit points become PC hooks.
	if rt.trackAllocs && !opts.Hypercalls && opts.Platform != nil {
		for i := range opts.Platform.Allocs {
			a := opts.Platform.Allocs[i] // copy for closures
			sizeReg, ok := isa.RegByName(a.SizeArg)
			if !ok {
				return nil, fmt.Errorf("san: alloc %q: bad size register %q", a.Name, a.SizeArg)
			}
			retReg, ok := isa.RegByName(a.RetArg)
			if !ok {
				return nil, fmt.Errorf("san: alloc %q: bad ret register %q", a.Name, a.RetArg)
			}
			key := a.Entry
			m.HookPC(a.Entry, func(m *emu.Machine, h *emu.Hart) {
				if !rt.enabled {
					return
				}
				size := h.Regs[sizeReg]
				if rt.trace != nil {
					rt.trace.Emit(obs.Event{ICnt: m.ICount(), PC: key, Arg: size,
						Kind: obs.EvAllocEnter, Hart: uint8(h.ID)})
				}
				pk := pendKey{h.ID, key}
				rt.pending[pk] = append(rt.pending[pk], pendingAlloc{
					size: size,
					ra:   h.Regs[isa.RegRA],
				})
			})
			for _, exit := range a.Exits {
				m.HookPC(exit, func(m *emu.Machine, h *emu.Hart) {
					if !rt.enabled {
						return
					}
					pk := pendKey{h.ID, key}
					st := rt.pending[pk]
					if len(st) == 0 {
						return
					}
					p := st[len(st)-1]
					rt.pending[pk] = st[:len(st)-1]
					if rt.trace != nil {
						if rt.trace.Emit(obs.Event{ICnt: m.ICount(), PC: key, Addr: h.Regs[retReg],
							Arg: p.size, Kind: obs.EvAllocExit, Hart: uint8(h.ID)}) {
							rt.emitFrames(key, m.ICount(), h.ID)
						}
					}
					if rt.kasan != nil {
						rt.kasan.OnAlloc(h.Regs[retReg], p.size, p.ra)
					}
				})
			}
		}
		for i := range opts.Platform.Frees {
			f := opts.Platform.Frees[i]
			ptrReg, ok := isa.RegByName(f.PtrArg)
			if !ok {
				return nil, fmt.Errorf("san: free %q: bad ptr register %q", f.Name, f.PtrArg)
			}
			m.HookPC(f.Entry, func(m *emu.Machine, h *emu.Hart) {
				if !rt.enabled || rt.kasan == nil {
					return
				}
				ptr := h.Regs[ptrReg]
				if rt.trace != nil {
					if rt.trace.Emit(obs.Event{ICnt: m.ICount(), PC: f.Entry, Addr: ptr,
						Kind: obs.EvFree, Hart: uint8(h.ID)}) {
						rt.emitFrames(f.Entry, m.ICount(), h.ID)
					}
				}
				if r := rt.kasan.OnFree(ptr, h.Regs[isa.RegRA], h.ID); r != nil {
					rt.report(r)
				} else {
					rt.traceQuarantine(ptr, h.Regs[isa.RegRA], h.ID)
				}
			})
		}
	}

	// Dummy sanitizer library (EMBSAN-C): direct hypercall dispatch.
	if opts.Hypercalls {
		m.HandleHypercall(isa.HcallSanAlloc, func(m *emu.Machine, h *emu.Hart) {
			if rt.enabled && rt.kasan != nil {
				if rt.trace != nil {
					// The hypercall reports a completed allocation, so it maps
					// to the exit event alone.
					if rt.trace.Emit(obs.Event{ICnt: m.ICount(), PC: h.Regs[isa.RegRA],
						Addr: h.Regs[isa.RegA0], Arg: h.Regs[isa.RegA1],
						Kind: obs.EvAllocExit, Hart: uint8(h.ID)}) {
						rt.emitFrames(h.Regs[isa.RegRA], m.ICount(), h.ID)
					}
				}
				rt.kasan.OnAlloc(h.Regs[isa.RegA0], h.Regs[isa.RegA1], h.Regs[isa.RegRA])
			}
		})
		m.HandleHypercall(isa.HcallSanFree, func(m *emu.Machine, h *emu.Hart) {
			if !rt.enabled || rt.kasan == nil {
				return
			}
			if rt.trace != nil {
				if rt.trace.Emit(obs.Event{ICnt: m.ICount(), PC: h.Regs[isa.RegRA],
					Addr: h.Regs[isa.RegA0], Kind: obs.EvFree, Hart: uint8(h.ID)}) {
					rt.emitFrames(h.Regs[isa.RegRA], m.ICount(), h.ID)
				}
			}
			if r := rt.kasan.OnFree(h.Regs[isa.RegA0], h.Regs[isa.RegRA], h.ID); r != nil {
				rt.report(r)
			} else {
				rt.traceQuarantine(h.Regs[isa.RegA0], h.Regs[isa.RegRA], h.ID)
			}
		})
		m.HandleHypercall(isa.HcallSanPoison, func(m *emu.Machine, h *emu.Hart) {
			if rt.kasan != nil {
				rt.kasan.Shadow().Poison(h.Regs[isa.RegA0], h.Regs[isa.RegA1], byte(h.Regs[isa.RegA2]))
			}
		})
		m.HandleHypercall(isa.HcallSanUnpoison, func(m *emu.Machine, h *emu.Hart) {
			if rt.kasan != nil {
				rt.kasan.Shadow().Unpoison(h.Regs[isa.RegA0], h.Regs[isa.RegA1])
			}
		})
		// Range interceptors (__asan_memcpy-style library hooks).
		m.HandleHypercall(isa.HcallSanMemcpy, func(m *emu.Machine, h *emu.Hart) {
			rt.checkRange(h.Regs[isa.RegA0], h.Regs[isa.RegA2], true, h)
			rt.checkRange(h.Regs[isa.RegA1], h.Regs[isa.RegA2], false, h)
		})
		m.HandleHypercall(isa.HcallSanMemset, func(m *emu.Machine, h *emu.Hart) {
			rt.checkRange(h.Regs[isa.RegA0], h.Regs[isa.RegA2], true, h)
		})
	}

	// The sanitizer initialises at the firmware's ready-to-run point.
	prev := m.ReadyHook
	m.ReadyHook = func(m *emu.Machine) {
		if prev != nil {
			prev(m)
		}
		rt.applyInit()
		rt.enabled = true
	}
	return rt, nil
}

// applyInit executes the initial setup routine compiled by the Prober.
func (rt *Runtime) applyInit() {
	if rt.kasan == nil {
		return
	}
	sh := rt.kasan.Shadow()
	// The NULL guard page is always poisoned.
	sh.Poison(0, emu.NullGuardSize, CodeNull)
	// Compile-time global redzones (EMBSAN-C metadata).
	for _, g := range rt.opts.Globals {
		sh.Poison(g.Addr-g.Redzone, g.Redzone, CodeGlobalRedzone)
		sh.Poison(g.Addr+g.Size, g.Redzone, CodeGlobalRedzone)
	}
	// Heap regions from the platform configuration.
	if rt.opts.Platform != nil {
		for _, h := range rt.opts.Platform.Heaps {
			rt.kasan.NoteHeapRegion(h.Start, h.End)
		}
	}
	// The recorded dry-run actions.
	if rt.opts.Init != nil {
		for _, op := range rt.opts.Init.Ops {
			switch op.Kind {
			case dsl.InitShadow:
				// Shadow is pre-allocated; nothing to do.
			case dsl.InitPoison:
				code := CodeHeapUninit
				if c, ok := CodeByName(op.Code); ok {
					code = c
				}
				sh.Poison(op.Addr, op.Size, code)
			case dsl.InitUnpoison:
				sh.Unpoison(op.Addr, op.Size)
			case dsl.InitAlloc:
				rt.kasan.OnAlloc(op.Addr, op.Size, 0)
			}
		}
	}
}

// onMem handles both the generic translation probes (EMBSAN-D) and the
// SANCK trap path (EMBSAN-C).
func (rt *Runtime) onMem(ev *emu.MemEvent) {
	if !rt.enabled {
		return
	}
	if ev.Addr >= emu.MMIOBase {
		return // device memory is not sanitized
	}
	switch {
	case ev.Atomic:
		if !rt.checkAtomics {
			return
		}
	case ev.Write:
		if !rt.checkStores {
			return
		}
	default:
		if !rt.checkLoads {
			return
		}
	}
	if rt.suppressed(ev.PC) {
		return
	}
	if rt.ubsan && ev.Size > 1 && ev.Addr&(ev.Size-1) != 0 {
		rt.report(&Report{
			Tool: ToolUBSAN, Bug: BugMisaligned, Addr: ev.Addr, Size: ev.Size,
			Write: ev.Write, PC: ev.PC, Hart: ev.Hart,
		})
		if rt.opts.StopOnReport {
			return
		}
	}
	if rt.kasan != nil {
		if r := rt.kasan.CheckAccess(ev.Addr, ev.Size, ev.Write, ev.PC, ev.Hart); r != nil {
			r.Stack = rt.m.CallStack(ev.Hart)
			r.CallerPC = rt.callerPC(r.Stack, ev.Hart)
			rt.report(r)
			if rt.opts.StopOnReport {
				return
			}
		}
	}
	if rt.kcsan != nil {
		stall, r := rt.kcsan.OnAccess(ev.Addr, ev.Size, ev.Write, ev.PC, ev.Hart, ev.Atomic)
		if r != nil {
			rt.report(r)
			if rt.opts.StopOnReport {
				return
			}
		}
		if stall > 0 {
			ev.StallInsts = stall
		}
	}
}

// suppressed reports whether pc lies in a platform suppression range.
func (rt *Runtime) suppressed(pc uint32) bool {
	for _, r := range rt.suppress {
		if r.Contains(pc) {
			return true
		}
	}
	return false
}

// checkRange validates a whole region at once (range interceptor path).
func (rt *Runtime) checkRange(addr, size uint32, write bool, h *emu.Hart) {
	if !rt.enabled || rt.kasan == nil || size == 0 || addr >= emu.MMIOBase {
		return
	}
	if r := rt.kasan.CheckAccess(addr, size, write, h.Regs[isa.RegRA], h.ID); r != nil {
		r.Stack = rt.m.CallStack(h.ID)
		r.CallerPC = rt.callerPC(r.Stack, h.ID)
		rt.report(r)
	}
}

// callerPC derives the return address of the innermost live frame: the
// shadow-stack top when frames are recorded (a call-site PC plus 4 is its
// return address), else the live RA register, which covers the state
// before the first call.
func (rt *Runtime) callerPC(stack []uint32, hart int) uint32 {
	if len(stack) > 0 {
		return stack[0] + 4
	}
	return rt.m.Hart(hart).Regs[isa.RegRA]
}

// emitFrames attaches the hart's current shadow call stack to the event
// just retained in the trace ring, one EvFrame per frame. Forensic arming
// only: callers gate on the parent event's retention so a filtered-out
// parent never leaves orphaned frames.
func (rt *Runtime) emitFrames(parentPC uint32, icnt uint64, hart int) {
	if !rt.forensics {
		return
	}
	for i, pc := range rt.m.CallStack(hart) {
		rt.trace.Emit(obs.Event{ICnt: icnt, PC: parentPC, Addr: pc,
			Arg: uint32(i), Kind: obs.EvFrame, Hart: uint8(hart)})
	}
}

// traceQuarantine records a chunk entering the quarantine after a clean
// free (forensic arming only).
func (rt *Runtime) traceQuarantine(ptr, pc uint32, hart int) {
	if !rt.forensics || rt.trace == nil || rt.kasan == nil {
		return
	}
	c := rt.kasan.ChunkAt(ptr)
	if c == nil || !c.Freed {
		return
	}
	rt.trace.Emit(obs.Event{ICnt: rt.m.ICount(), PC: pc, Addr: c.Addr,
		Arg: c.Size, Kind: obs.EvQuarantine, Hart: uint8(hart)})
}

// ArmForensics turns full provenance capture on or off: the KASAN engine
// stamps every chunk with alloc/free backtraces, and traced allocator,
// free and report events carry EvFrame children plus EvQuarantine
// transitions. The emulator's shadow call stack is maintained regardless —
// arming only changes what is copied out of it.
func (rt *Runtime) ArmForensics(on bool) {
	rt.forensics = on
	if rt.kasan == nil {
		return
	}
	if on {
		rt.kasan.SetStacker(func() []uint32 {
			return rt.m.CallStack(rt.m.CurrentHart().ID)
		})
	} else {
		rt.kasan.SetStacker(nil)
	}
}

// ForensicsArmed reports whether forensic capture is on.
func (rt *Runtime) ForensicsArmed() bool { return rt.forensics }

// libFrames are guest library routines whose reports are attributed to the
// caller (one-frame stack skipping).
var libFrames = map[string]bool{
	"memcpy": true, "memset": true, "bzero": true,
}

func (rt *Runtime) report(r *Report) {
	img := rt.m.Image()
	r.ICnt = rt.m.ICount()
	r.Location = img.Symbolize(r.PC)
	if r.CallerPC != 0 {
		if fn, ok := img.FuncAt(r.PC); ok {
			if libFrames[fn.Name] {
				r.Location = img.Symbolize(r.CallerPC)
			}
		} else if img.Stripped {
			// No symbols: keep both frames so distinct call sites of shared
			// helpers stay distinguishable.
			r.Location = fmt.Sprintf("%#08x<%#08x", r.PC, r.CallerPC)
		}
	}
	sig := r.Signature()
	if rt.seen[sig] {
		return
	}
	rt.seen[sig] = true
	// Free-path reports (double/invalid free) arrive without an access
	// stack; the freeing call chain is live right now, so capture it.
	if r.Stack == nil {
		r.Stack = rt.m.CallStack(r.Hart)
	}
	rt.reports = append(rt.reports, r)
	if rt.trace != nil {
		if rt.trace.Emit(obs.Event{ICnt: r.ICnt, PC: r.PC, Addr: r.Addr,
			Arg: uint32(r.Bug), Kind: obs.EvReport, Hart: uint8(r.Hart)}) && rt.forensics {
			for i, pc := range r.Stack {
				rt.trace.Emit(obs.Event{ICnt: r.ICnt, PC: r.PC, Addr: pc,
					Arg: uint32(i), Kind: obs.EvFrame, Hart: uint8(r.Hart)})
			}
		}
	}
	if rt.OnReport != nil {
		rt.OnReport(r)
	}
	if rt.opts.StopOnReport {
		rt.m.RequestStop()
	}
}

// SetTrace attaches (or, with nil, detaches) a trace ring. Allocator
// interceptions and new reports are emitted into it, and the shadow memory
// is wired to the same ring so poison/unpoison events land in one stream.
func (rt *Runtime) SetTrace(r *obs.Ring) {
	rt.trace = r
	if rt.kasan != nil {
		if r == nil {
			rt.kasan.Shadow().SetTrace(nil, nil)
		} else {
			rt.kasan.Shadow().SetTrace(r, rt.m.ICount)
		}
	}
}

// Reports returns all distinct reports so far.
func (rt *Runtime) Reports() []*Report { return rt.reports }

// Enabled reports whether the runtime has passed the ready point.
func (rt *Runtime) Enabled() bool { return rt.enabled }

// KASANEngine exposes the KASAN engine (nil when not configured).
func (rt *Runtime) KASANEngine() *KASAN { return rt.kasan }

// KCSANEngine exposes the KCSAN engine (nil when not configured).
func (rt *Runtime) KCSANEngine() *KCSAN { return rt.kcsan }

// SetSitePolicy installs the runtime's per-site policy on the machine,
// retranslating all code, and reports whether the in-template shadow check
// is armed. raceWeights is the lockset analysis' KCSAN arming weight per
// dispatch PC: 0 = never armed, above 1 = preferential, absent = 1.
// With inline set, every site is armed unless skipping a clean
// dispatch would be observable: KCSAN samples watchpoints statefully on
// every access, UBSAN reports misalignment on perfectly addressable memory,
// and without KASAN there is no shadow to test. For pure KASAN, onMem is a
// no-op on every access the template settles, and at suppressed PCs it
// returns before any engine runs, so those sites are quiet.
func (rt *Runtime) SetSitePolicy(raceWeights map[uint32]uint8, inline bool) (armed bool) {
	if rt.kcsan != nil {
		rt.kcsan.weights = raceWeights
	}
	rt.armed = inline && rt.kasan != nil && rt.kcsan == nil && !rt.ubsan
	var shadow *emu.Memory
	if rt.armed {
		shadow = rt.kasan.Shadow().mem
	}
	rt.m.SetSitePolicy(shadow, rt.site)
	return rt.armed
}

// site is the policy the translator asks once per dispatch site.
func (rt *Runtime) site(pc uint32) emu.Site {
	switch {
	case !rt.armed:
		return emu.SiteCheck
	case rt.suppressed(pc):
		return emu.SiteQuiet
	}
	return emu.SiteInline
}

// Snapshot captures the runtime state in lockstep with Machine.Snapshot.
func (rt *Runtime) Snapshot() {
	if rt.kasan != nil {
		rt.kasan.Shadow().Snapshot()
		rt.kasanSnap = rt.kasan.Snapshot()
	}
	rt.enabledAtSnap = rt.enabled
}

// Restore rewinds the runtime state in lockstep with Machine.Restore.
func (rt *Runtime) Restore() {
	if rt.kasan != nil && rt.kasanSnap != nil {
		rt.kasan.Shadow().Restore()
		rt.kasan.RestoreState(rt.kasanSnap)
	}
	if rt.kcsan != nil {
		rt.kcsan.Reset()
	}
	rt.enabled = rt.enabledAtSnap
	rt.reports = nil
	clear(rt.seen)
	clear(rt.pending)
}

// ConvertNative translates in-guest sanitizer reports (SanDev) into the
// host report format so native and EMBSAN findings compare directly.
func ConvertNative(img *kasm.Image, reps []emu.NativeReport) []*Report {
	var out []*Report
	for _, nr := range reps {
		r := &Report{PC: nr.PC, Addr: nr.Addr, Location: img.Symbolize(nr.PC)}
		switch nr.Kind {
		case NativeKindKCSAN:
			r.Tool = ToolKCSAN
			r.Bug = BugRace
			r.OtherPC = nr.Info
		default:
			r.Tool = ToolKASAN
			switch byte(nr.Info) {
			case CodeHeapFree:
				r.Bug = BugUAF
			case CodeGlobalRedzone:
				r.Bug = BugGlobalOOB
			case CodeStackRedzone:
				r.Bug = BugStackOOB
			case CodeNull:
				r.Bug = BugNullDeref
			case CodeHeapUninit:
				r.Bug = BugOOB
			default:
				r.Bug = BugOOB
			}
		}
		out = append(out, r)
	}
	return out
}
