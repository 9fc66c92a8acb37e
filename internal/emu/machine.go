package emu

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/obs"
)

// Config sizes a machine.
type Config struct {
	RAMSize  uint32 // defaults to 16 MiB
	MaxHarts int    // defaults to 2
	Quantum  int    // instructions per scheduling slice; defaults to 64
	Seed     uint64 // non-zero enables interleaving jitter
	// NoTBCache disables the translation-block cache (ablation): every
	// block is re-decoded on entry. It implies NoChain — chain links would
	// pin stale blocks.
	NoTBCache bool
	// NoChain disables TB exit chaining (ablation / differential testing):
	// every block transfer goes through the dispatcher.
	NoChain bool
	// Devices appends extra memory-mapped peripherals after the platform
	// set. Factories run at the end of New so a device can hold the machine
	// it serves (the rehosting bridge uses this to forward console bytes to
	// the UART and request stops). Extra devices never affect translation:
	// MMIO dispatch happens on the bus, not in the templates.
	Devices []DeviceFactory
}

// DeviceFactory builds one extra peripheral for the machine being
// constructed. The returned device joins bus dispatch immediately and its
// Reset participates in Snapshot/Restore like the platform devices.
type DeviceFactory func(*Machine) Device

// DefaultRAMSize is 16 MiB.
const DefaultRAMSize = 16 << 20

// Hart is one hardware thread.
type Hart struct {
	ID       int
	Regs     [isa.NumRegs]uint32
	PC       uint32
	Scratch  [2]uint32 // per-hart scratch CSRs
	Active   bool
	Halted   bool
	resValid bool
	resAddr  uint32
	resumeAt uint64 // suspended until the global instruction counter reaches this

	// Shadow call stack (see stack.go): a circular buffer of call-site PCs
	// for the hart's live frames. Embedded by value so Snapshot/Restore,
	// which copy harts wholesale, carry it with no extra bookkeeping.
	css      [ShadowStackDepth]uint32
	cssStart uint16
	cssDepth uint16
}

// StopReason reports why Run returned.
type StopReason uint8

const (
	StopNone    StopReason = iota
	StopExit               // guest requested exit
	StopFault              // guest hardware fault (crash oracle)
	StopBudget             // instruction budget exhausted
	StopHalted             // every hart halted
	StopRequest            // host requested stop (e.g. sanitizer report)
)

func (s StopReason) String() string {
	switch s {
	case StopExit:
		return "exit"
	case StopFault:
		return "fault"
	case StopBudget:
		return "budget"
	case StopHalted:
		return "halted"
	case StopRequest:
		return "request"
	}
	return "running"
}

// MemEvent is passed to memory probes. Probes may set StallInsts to suspend
// the hart *before* the access executes — the mechanism KCSAN-style delayed
// watchpoints are built on. The machine reuses one event value across
// dispatches to keep the hot path allocation-free, so the pointer is valid
// only for the duration of the callback: copy the value to retain it.
type MemEvent struct {
	Hart   int
	PC     uint32
	Addr   uint32
	Size   uint32
	Write  bool
	Atomic bool

	StallInsts uint64 // out-parameter
}

// ProbeSet is the instrumentation the EMBSAN runtime registers. When a field
// is nil, translated code contains no callback for that event class at all —
// probe insertion happens inside the translation templates.
type ProbeSet struct {
	// Mem fires before every load, store and atomic (EMBSAN-D path).
	Mem func(*MemEvent)
	// Sanck fires for every SANCK trap instruction (EMBSAN-C path).
	Sanck func(*MemEvent)
}

// HookFn is invoked when execution reaches a hooked PC, before the
// instruction at that address runs.
type HookFn func(m *Machine, h *Hart)

// HyperFn handles one hypercall number.
type HyperFn func(m *Machine, h *Hart)

// Machine is a complete emulated system.
type Machine struct {
	cfg   Config
	arch  isa.Arch
	image *kasm.Image
	bus   bus

	harts []Hart
	cur   int
	icnt  uint64
	rng   uint64

	probes    ProbeSet
	pcHooks   map[uint32]HookFn
	hypers    map[int32]HyperFn
	tbs       map[uint32]*tb
	pageGen   []uint32
	globalGen uint32
	// chainGen stamps TB exit links and jump-cache entries. Every TB flush
	// and text-page invalidation bumps it, severing every link at once, so a
	// matching stamp proves a fresh target. It starts above the zero stamp
	// and is 64 bits wide so it never wraps back to an old one.
	chainGen uint64
	// textDirty holds the pages whose text bytes were written since the
	// last Snapshot or Restore: Restore invalidates them when it reverts.
	textDirty blockSet
	// resHeld is false only while no hart holds an LR reservation, letting
	// stores skip the reservation sweep.
	resHeld bool

	// The per-site sanitizer policy and the shadow SiteInline sites test.
	site       func(pc uint32) Site
	siteShadow *Memory

	stop     StopReason
	exitCode int32
	fault    *Fault

	// ReadyReached is set once the firmware issues the ready-to-run
	// hypercall; ReadyHook (if set) fires at that moment.
	ReadyReached bool
	ReadyHook    func(m *Machine)

	// coverHook fires once per block per installation (SetCoverageHook):
	// a block reports when its stamp differs from coverGen, which starts at 1.
	coverHook func(pc uint32)
	coverGen  uint32

	// CmpHook fires on every failed equality branch (BEQ/BNE with unequal
	// operands), exposing both operand values — the comparison feedback
	// Redqueen-style mutators harvest magic constants from.
	CmpHook func(a, b uint32)

	// TraceHook, when set, fires before every retired instruction — the
	// debugging firehose behind `embsan -trace`. Expensive; leave nil in
	// measurement runs.
	TraceHook func(hart int, pc uint32, inst isa.Inst)

	UART    *UART
	Mailbox *Mailbox
	TestDev *TestDev
	SanDev  *SanDev

	snapHarts []Hart // nil until the first Snapshot
	snapReady bool
	snapICnt  uint64

	// Runtime accounting lives in named obs instruments (registered in the
	// machine's metrics registry); ctr caches the pointers for the hot
	// paths. trace/prof are the opt-in observability hooks: nil (the
	// default) means the interpreter loop pays one pointer compare and
	// nothing else.
	metrics *obs.Registry
	ctr     machineCounters
	trace   *obs.Ring
	prof    *obs.Profile

	// memEv is the scratch event handed to Mem/Sanck probes; reusing it
	// keeps sanitizer dispatch off the heap (see the MemEvent contract).
	memEv MemEvent

	// jmpCache chains indirect transfers (JALR exits, quantum resumption):
	// a direct-mapped PC-indexed table consulted before the dispatcher,
	// severed by the same chainGen bump as the exit links.
	jmpCache [jmpCacheSize]jmpEntry
}

// machineCounters caches the machine's registered instruments so hot paths
// bump a pointer instead of looking names up.
type machineCounters struct {
	tbHits, tbMisses, transInsts *obs.Counter
	restores, restorePages       *obs.Counter
	sanckTraps, sanckElided      *obs.Counter
	memProbes, memElided         *obs.Counter
	dispatches, chainHits        *obs.Counter
	inlineFast, inlineSlow       *obs.Counter
	devReads, devWrites          *obs.Counter
}

// Counters is a point-in-time snapshot of the machine's runtime accounting:
// translation-block cache behaviour, snapshot restores and sanitizer
// dispatches. The campaign scheduler diffs these to attribute work to its
// pool workers; the live values are named instruments in Metrics().
type Counters struct {
	TBHits     uint64 // translation blocks served from the cache
	TBMisses   uint64 // translation blocks decoded fresh
	TransInsts uint64 // instructions decoded while translating (translate-phase work)
	Restores   uint64 // snapshot restores performed
	// RestorePages counts dirty pages copied back by restores — the
	// snapshot-phase virtual work unit of the campaign phase breakdown.
	RestorePages uint64

	// Sanitizer dispatch accounting, split by instrumentation mode. The
	// *Elided counters tally the SiteElided sites of the site policy:
	// executed FENCE pads standing where a SANCK was dropped at link time
	// (EMBSAN-C), and proven accesses whose Mem probe the translator
	// skipped (EMBSAN-D). Elided counts only accumulate while the matching
	// probe is registered, so trap+elided is comparable across runs.
	SanckTraps  uint64 // SANCK instructions dispatched to the Sanck probe
	SanckElided uint64 // elision pads executed in lieu of a SANCK trap
	MemProbes   uint64 // accesses dispatched to the Mem probe
	MemElided   uint64 // proven accesses that skipped the Mem probe

	// Fast-path accounting. Dispatches counts dispatcher entries (tbFor
	// calls); ChainHits counts block transfers that followed a patched exit
	// link instead. InlineFast/InlineSlow split dispatches at armed sites by
	// whether the in-template check settled them.
	Dispatches uint64
	ChainHits  uint64
	InlineFast uint64
	InlineSlow uint64

	// MMIO dispatch accounting: data accesses that reached a device (the
	// platform peripherals or any Config.Devices extra).
	DeviceReads  uint64
	DeviceWrites uint64
}

// Sub returns the field-wise difference c-o: the accounting accumulated
// between two snapshots.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		TBHits:       c.TBHits - o.TBHits,
		TBMisses:     c.TBMisses - o.TBMisses,
		TransInsts:   c.TransInsts - o.TransInsts,
		Restores:     c.Restores - o.Restores,
		RestorePages: c.RestorePages - o.RestorePages,
		SanckTraps:   c.SanckTraps - o.SanckTraps,
		SanckElided:  c.SanckElided - o.SanckElided,
		MemProbes:    c.MemProbes - o.MemProbes,
		MemElided:    c.MemElided - o.MemElided,
		Dispatches:   c.Dispatches - o.Dispatches,
		ChainHits:    c.ChainHits - o.ChainHits,
		InlineFast:   c.InlineFast - o.InlineFast,
		InlineSlow:   c.InlineSlow - o.InlineSlow,
		DeviceReads:  c.DeviceReads - o.DeviceReads,
		DeviceWrites: c.DeviceWrites - o.DeviceWrites,
	}
}

// New creates a machine and loads the firmware image.
func New(img *kasm.Image, cfg Config) (*Machine, error) {
	if cfg.RAMSize == 0 {
		cfg.RAMSize = DefaultRAMSize
	}
	if cfg.MaxHarts <= 0 {
		cfg.MaxHarts = 2
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 64
	}
	if cfg.NoTBCache {
		cfg.NoChain = true
	}
	if cfg.RAMSize%pageSize != 0 {
		return nil, fmt.Errorf("emu: RAM size %#x is not a multiple of the %#x-byte page", cfg.RAMSize, pageSize)
	}
	// Every section must end inside RAM; the sums are taken in 64 bits so a
	// hostile layout cannot wrap past the check.
	for _, sec := range [...]struct{ addr, size uint64 }{
		{uint64(img.Base), uint64(len(img.Text))},
		{uint64(img.DataAddr), uint64(len(img.Data))},
		{uint64(img.BSSAddr), uint64(img.BSSSize)},
	} {
		if sec.addr+sec.size > uint64(cfg.RAMSize) {
			return nil, fmt.Errorf("emu: image section [%#x, %#x) lies past the machine's %#x bytes of RAM",
				sec.addr, sec.addr+sec.size, cfg.RAMSize)
		}
	}
	m := &Machine{
		cfg:      cfg,
		arch:     img.Arch,
		image:    img,
		pcHooks:  make(map[uint32]HookFn),
		hypers:   make(map[int32]HyperFn),
		tbs:      make(map[uint32]*tb),
		rng:      cfg.Seed | 1,
		metrics:  obs.NewRegistry(),
		chainGen: 1,
		coverGen: 1,
	}
	m.ctr = machineCounters{
		tbHits:       m.metrics.Counter("emu.tb.hits"),
		tbMisses:     m.metrics.Counter("emu.tb.misses"),
		transInsts:   m.metrics.Counter("emu.translate.insts"),
		restores:     m.metrics.Counter("emu.snapshot.restores"),
		restorePages: m.metrics.Counter("emu.snapshot.restore_pages"),
		sanckTraps:   m.metrics.Counter("emu.sanck.traps"),
		sanckElided:  m.metrics.Counter("emu.sanck.elided"),
		memProbes:    m.metrics.Counter("emu.mem.probes"),
		memElided:    m.metrics.Counter("emu.mem.elided"),
		dispatches:   m.metrics.Counter("emu.dispatch.entries"),
		chainHits:    m.metrics.Counter("emu.chain.hits"),
		inlineFast:   m.metrics.Counter("emu.inline.fast"),
		inlineSlow:   m.metrics.Counter("emu.inline.slow"),
		devReads:     m.metrics.Counter("emu.mmio.reads"),
		devWrites:    m.metrics.Counter("emu.mmio.writes"),
	}
	m.bus.ram = NewMemory(cfg.RAMSize, pageShift)
	m.bus.devReads = m.ctr.devReads
	m.bus.devWrites = m.ctr.devWrites
	m.bus.big = img.Arch.ByteOrder() == binary.BigEndian
	m.textDirty = newBlockSet(int(cfg.RAMSize >> pageShift))
	m.pageGen = make([]uint32, cfg.RAMSize>>pageShift)

	m.UART = &UART{}
	m.Mailbox = &Mailbox{machine: m}
	m.TestDev = &TestDev{machine: m}
	m.SanDev = &SanDev{}
	m.bus.devices = []Device{m.UART, m.Mailbox, m.TestDev, m.SanDev}
	for _, f := range cfg.Devices {
		if d := f(m); d != nil {
			m.bus.devices = append(m.bus.devices, d)
		}
	}

	// The image pages are dirty: the first Snapshot must copy them.
	for _, sec := range [...]struct {
		addr uint32
		b    []byte
	}{{img.Base, img.Text}, {img.DataAddr, img.Data}} {
		if len(sec.b) > 0 {
			copy(m.bus.ram.bytes[sec.addr:], sec.b)
			m.bus.ram.MarkDirty(sec.addr, uint32(len(sec.b)))
		}
	}

	m.harts = make([]Hart, cfg.MaxHarts)
	for i := range m.harts {
		m.harts[i].ID = i
	}
	m.harts[0].PC = img.Entry
	m.harts[0].Active = true

	m.installPlatformHypercalls()
	return m, nil
}

// Seed returns the machine's current interleaving seed (as set by Config or
// the latest Reseed) — the campaign identity deterministic samplers mix in.
func (m *Machine) Seed() uint64 { return m.cfg.Seed }

// Site is the sanitizer policy of one dispatch site: an access, a SANCK,
// or a FENCE pad standing where link-time elision dropped a SANCK.
type Site uint8

const (
	SiteCheck  Site = iota // dispatch every execution to the probe
	SiteInline             // test the shadow in the template, probe what it cannot settle
	SiteQuiet              // count the dispatch, never call the probe
	SiteElided             // no dispatch, counted as elided; the one state a FENCE heeds
)

// SetSitePolicy installs the per-site sanitizer policy (nil = SiteCheck
// everywhere) and retranslates all code. The translator calls site once
// per access, SANCK and FENCE site it translates while the matching probe
// is installed. shadow is the sanitizer's live shadow, which SiteInline
// sites read on every dispatch (nil only if site never answers SiteInline).
// That a settled or elided dispatch is unobservable is the caller's promise
// (san.Runtime).
func (m *Machine) SetSitePolicy(shadow *Memory, site func(pc uint32) Site) {
	m.siteShadow, m.site = shadow, site
	m.flushTBs()
}

// Image returns the loaded firmware image.
func (m *Machine) Image() *kasm.Image { return m.image }

// Arch returns the guest architecture.
func (m *Machine) Arch() isa.Arch { return m.arch }

// ICount returns the number of retired guest instructions.
func (m *Machine) ICount() uint64 { return m.icnt }

// RAMSize returns the machine's RAM size.
func (m *Machine) RAMSize() uint32 { return m.cfg.RAMSize }

// Counters returns a snapshot of the accumulated runtime accounting.
func (m *Machine) Counters() Counters {
	return Counters{
		TBHits:       m.ctr.tbHits.Value(),
		TBMisses:     m.ctr.tbMisses.Value(),
		TransInsts:   m.ctr.transInsts.Value(),
		Restores:     m.ctr.restores.Value(),
		RestorePages: m.ctr.restorePages.Value(),
		SanckTraps:   m.ctr.sanckTraps.Value(),
		SanckElided:  m.ctr.sanckElided.Value(),
		MemProbes:    m.ctr.memProbes.Value(),
		MemElided:    m.ctr.memElided.Value(),
		Dispatches:   m.ctr.dispatches.Value(),
		ChainHits:    m.ctr.chainHits.Value(),
		InlineFast:   m.ctr.inlineFast.Value(),
		InlineSlow:   m.ctr.inlineSlow.Value(),
		DeviceReads:  m.ctr.devReads.Value(),
		DeviceWrites: m.ctr.devWrites.Value(),
	}
}

// Metrics returns the machine's instrument registry (named counters backing
// the Counters snapshot).
func (m *Machine) Metrics() *obs.Registry { return m.metrics }

// SetTrace attaches (or, with nil, detaches) a virtual-time event ring. The
// machine emits TB enter/exit, sanitizer dispatch and snapshot/restore
// events into it; the sanitizer runtime shares the same ring for allocator,
// shadow and report events. The caller owns the ring's goroutine affinity.
func (m *Machine) SetTrace(r *obs.Ring) { m.trace = r }

// Trace returns the attached event ring (nil when tracing is off).
func (m *Machine) Trace() *obs.Ring { return m.trace }

// SetProfile attaches (or, with nil, detaches) a guest PC profiler that
// accumulates per-block instruction cost and per-site dispatch counts.
func (m *Machine) SetProfile(p *obs.Profile) { m.prof = p }

// Reseed re-seeds the interleaving-jitter RNG. A pooled machine is reused
// across campaigns via Restore + Reseed: after both, its observable
// behaviour is a pure function of the snapshot and the new seed, regardless
// of what ran on it before. Seed 0 disables jitter, as in Config.
func (m *Machine) Reseed(seed uint64) {
	m.cfg.Seed = seed
	m.rng = seed | 1
}

// Stop state accessors.
func (m *Machine) StopReason() StopReason { return m.stop }
func (m *Machine) ExitCode() int32        { return m.exitCode }
func (m *Machine) Fault() *Fault          { return m.fault }

// Exit stops the machine with the given exit code.
func (m *Machine) Exit(code int32) {
	m.stop = StopExit
	m.exitCode = code
}

// RequestStop stops the machine from a probe or hook.
func (m *Machine) RequestStop() {
	if m.stop == StopNone {
		m.stop = StopRequest
	}
}

// ClearStop resumes a machine stopped with StopBudget or StopRequest.
func (m *Machine) ClearStop() {
	if m.stop == StopBudget || m.stop == StopRequest {
		m.stop = StopNone
	}
}

// SetCoverageHook installs fn (nil removes it) and returns the previous
// hook. fn gets each translation block's entry PC once per installation —
// the OS-agnostic coverage mechanism the Tardis frontend relies on — so it
// must be idempotent per PC for as long as it stays installed.
func (m *Machine) SetCoverageHook(fn func(pc uint32)) (prev func(pc uint32)) {
	prev, m.coverHook = m.coverHook, fn
	m.coverGen++
	return prev
}

// SetProbes installs the instrumentation probe set, retranslating all code.
// It drops the site policy: the policy vouches only for the delegate it was
// set against, and a replacement must see every access.
func (m *Machine) SetProbes(p ProbeSet) {
	m.probes = p
	m.site, m.siteShadow = nil, nil
	m.flushTBs()
}

// HookPC arranges for fn to run whenever any hart reaches pc.
func (m *Machine) HookPC(pc uint32, fn HookFn) {
	m.pcHooks[pc] = fn
	m.flushTBs()
}

// UnhookPC removes a PC hook.
func (m *Machine) UnhookPC(pc uint32) {
	delete(m.pcHooks, pc)
	m.flushTBs()
}

// HandleHypercall registers a handler for hypercall number n.
func (m *Machine) HandleHypercall(n int32, fn HyperFn) { m.hypers[n] = fn }

// MarkReady records the firmware as ready-to-run exactly as the ready
// hypercall would: foreign binaries have no hypercalls, so a rehosted
// device calls this when the guest first polls for input. Idempotent; the
// hook fires once.
func (m *Machine) MarkReady() {
	if !m.ReadyReached {
		m.ReadyReached = true
		if m.ReadyHook != nil {
			m.ReadyHook(m)
		}
	}
}

func (m *Machine) flushTBs() {
	m.globalGen++
	// Every cached block is now stale, so every installed exit link is too.
	m.chainGen++
}

// FlushTBs invalidates every cached translation block and severs all exit
// chains, returning the machine to a cold-translation state. Guest-visible
// behaviour is unchanged — only the translate/chain accounting moves.
// Campaign drivers that sample engine counters into determinism-bearing
// artifacts (the progress timeline) call it at campaign start so a pooled
// machine's translation and chaining counters evolve identically however
// many campaigns warmed it before.
func (m *Machine) FlushTBs() { m.flushTBs() }

// Hart returns hart i.
func (m *Machine) Hart(i int) *Hart { return &m.harts[i] }

// NumHarts returns the number of harts.
func (m *Machine) NumHarts() int { return len(m.harts) }

// CurrentHart returns the hart currently scheduled.
func (m *Machine) CurrentHart() *Hart { return &m.harts[m.cur] }

// SuspendHart stalls hart h for n instructions of global progress.
func (m *Machine) SuspendHart(h *Hart, n uint64) { h.resumeAt = m.icnt + n }

func (m *Machine) installPlatformHypercalls() {
	m.hypers[isa.HcallExit] = func(m *Machine, h *Hart) {
		m.Exit(int32(h.Regs[isa.RegA0]))
	}
	m.hypers[isa.HcallPutc] = func(m *Machine, h *Hart) {
		m.UART.Write(UARTBase, 1, h.Regs[isa.RegA0])
	}
	m.hypers[isa.HcallReady] = func(m *Machine, h *Hart) {
		m.MarkReady()
	}
	m.hypers[isa.HcallSpawn] = func(m *Machine, h *Hart) {
		id := int(h.Regs[isa.RegA0])
		if id <= 0 || id >= len(m.harts) {
			return
		}
		t := &m.harts[id]
		t.PC = h.Regs[isa.RegA1]
		t.Regs = [isa.NumRegs]uint32{}
		t.Regs[isa.RegSP] = h.Regs[isa.RegA2]
		t.Active = true
		t.Halted = false
		t.resumeAt = 0
		// A spawned hart starts a fresh call chain; frames recorded by a
		// previous occupant of the slot must not leak into its backtraces.
		t.resetCallStack()
	}
}

// ---- host memory access ----

// ReadBytes copies n guest bytes at addr (RAM only).
func (m *Machine) ReadBytes(addr, n uint32) ([]byte, error) {
	if !m.bus.inRAM(addr, n) {
		return nil, fmt.Errorf("emu: ReadBytes out of RAM: %#x+%d", addr, n)
	}
	out := make([]byte, n)
	copy(out, m.bus.ram.bytes[addr:])
	runtime.KeepAlive(m)
	return out, nil
}

// WriteBytes stores host bytes into guest RAM.
func (m *Machine) WriteBytes(addr uint32, b []byte) error {
	if !m.bus.inRAM(addr, uint32(len(b))) {
		return fmt.Errorf("emu: WriteBytes out of RAM: %#x+%d", addr, len(b))
	}
	copy(m.bus.ram.bytes[addr:], b)
	runtime.KeepAlive(m)
	m.bus.ram.MarkDirty(addr, uint32(len(b)))
	m.invalidateRange(addr, uint32(len(b)))
	return nil
}

// Peek reads up to 4 bytes without fault side effects; ok is false when the
// address is not plain RAM.
func (m *Machine) Peek(addr, size uint32) (uint32, bool) {
	if !m.bus.inRAM(addr, size) {
		return 0, false
	}
	v, _ := m.bus.read(addr, size)
	runtime.KeepAlive(m)
	return v, true
}

// ReadWord reads a data word with the guest byte order.
func (m *Machine) ReadWord(addr uint32) (uint32, error) {
	v, f := m.bus.read(addr, 4)
	runtime.KeepAlive(m)
	if f != FaultNone {
		return 0, fmt.Errorf("emu: ReadWord fault at %#x: %s", addr, f)
	}
	return v, nil
}

// WriteWord writes a data word with the guest byte order.
func (m *Machine) WriteWord(addr, v uint32) error {
	f := m.write(addr, 4, v)
	runtime.KeepAlive(m)
	if f != FaultNone {
		return fmt.Errorf("emu: WriteWord fault at %#x: %s", addr, f)
	}
	return nil
}

// write is the store path of every store, SC, AMO and WriteWord: the bus
// marks RAM dirty, then any text the write overwrote is invalidated.
func (m *Machine) write(addr, size, val uint32) FaultKind {
	f := m.bus.write(addr, size, val)
	if f == FaultNone {
		m.invalidateRange(addr, size)
	}
	return f
}

// ---- snapshot / restore ----

// Snapshot captures the current machine state as the restore point. RAM
// copies only the pages dirtied since the last Snapshot or Restore (before
// the first, since all-zero RAM: the loader marks the image pages dirty).
func (m *Machine) Snapshot() {
	m.bus.ram.Snapshot()
	m.snapHarts = append(m.snapHarts[:0], m.harts...)
	m.snapReady = m.ReadyReached
	m.snapICnt = m.icnt
	m.textDirty.drain(func(uint32) {})
	if m.trace != nil {
		m.trace.Emit(obs.Event{ICnt: m.icnt, Kind: obs.EvSnapshot, Hart: uint8(m.cur)})
	}
}

// Restore rewinds RAM (dirty pages only), harts and devices to the snapshot.
func (m *Machine) Restore() {
	if m.snapHarts == nil {
		return
	}
	// Reverting text written since the snapshot stales every TB translated
	// from it. A page dirtied only by data stores keeps its translations
	// and the links into them.
	m.textDirty.drain(func(p uint32) {
		m.pageGen[p]++
		m.chainGen++
	})
	m.ctr.restorePages.Add(uint64(m.bus.ram.Restore()))
	copy(m.harts, m.snapHarts)
	m.resHeld = true // the snapshot's harts may hold reservations
	m.ReadyReached = m.snapReady
	// Rewinding the global instruction counter keeps icnt-derived state
	// (CSRCycles reads, suspend deadlines) identical on every restore, so a
	// pooled machine behaves the same however many campaigns preceded it.
	m.icnt = m.snapICnt
	// TB exit links deliberately survive the rewind: only reverted text
	// can stale a block, and its invalidation above bumped chainGen. Keeping
	// healthy links is what makes replay loops run chained end to end.
	m.ctr.restores.Inc()
	m.stop = StopNone
	m.fault = nil
	m.exitCode = 0
	m.cur = 0
	for _, d := range m.bus.devices {
		d.Reset()
	}
	// Emitted after the rewind so the event's virtual timestamp (and hence
	// the whole subsequent stream) is a pure function of the snapshot, not
	// of whatever ran on a pooled machine before.
	if m.trace != nil {
		m.trace.Emit(obs.Event{ICnt: m.icnt, Kind: obs.EvRestore})
	}
}

func (m *Machine) nextRand() uint32 {
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	return uint32(m.rng)
}
