package emu

import (
	"testing"

	"embsan/internal/isa"
	"embsan/internal/kasm"
)

// chainLoopImage builds the canonical chaining workload: a counted loop whose
// body block's taken exit points back at itself, so a chained run follows the
// self-link on every iteration while an unchained run re-enters the
// dispatcher each time.
func chainLoopImage(t *testing.T, iters int32) *kasm.Image {
	t.Helper()
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rT0, iters)
	b.Li(rA0, 0)
	b.Label("loop")
	b.ADDI(rA0, rA0, 1)
	b.ADDI(rT0, rT0, -1)
	b.BNEZ(rT0, "loop")
	exitWith(b)
	return mustLink(t, b, "chainloop")
}

// TestChainingEquivalenceAndCounters: the chained and the unchained engine
// retire the same instructions to the same exit state; only the dispatcher
// accounting moves. The chained run must settle almost every block transfer
// through exit links — the dispatcher is entered once per quantum at most.
func TestChainingEquivalenceAndCounters(t *testing.T) {
	img := chainLoopImage(t, 5000)

	fast, err := New(img, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r := fast.Run(0); r != StopExit || fast.ExitCode() != 5000 {
		t.Fatalf("fast: stop=%v exit=%d", r, fast.ExitCode())
	}
	slow, err := New(img, Config{NoChain: true})
	if err != nil {
		t.Fatal(err)
	}
	if r := slow.Run(0); r != StopExit || slow.ExitCode() != 5000 {
		t.Fatalf("slow: stop=%v exit=%d", r, slow.ExitCode())
	}
	if fast.ICount() != slow.ICount() {
		t.Errorf("icnt diverged: fast %d, slow %d", fast.ICount(), slow.ICount())
	}
	fc, sc := fast.Counters(), slow.Counters()
	if fc.ChainHits == 0 {
		t.Error("chained run followed no exit links")
	}
	if sc.ChainHits != 0 {
		t.Errorf("NoChain run followed %d exit links", sc.ChainHits)
	}
	// ~5000 block transfers: unchained, each is a dispatcher entry; chained,
	// only quantum boundaries (64 insts apart) re-enter the dispatcher.
	if fc.Dispatches*10 > sc.Dispatches {
		t.Errorf("chaining barely moved dispatch count: %d chained vs %d unchained",
			fc.Dispatches, sc.Dispatches)
	}
	if fc.ChainHits+fc.Dispatches != sc.Dispatches {
		t.Errorf("block transfers not conserved: %d chained + %d dispatched != %d unchained dispatches",
			fc.ChainHits, fc.Dispatches, sc.Dispatches)
	}
}

// coincidingBranchLoop emits a counted loop around a branch whose target is
// its own fall-through address, taken on odd counts and not taken on even
// ones: a block with one successor reached in both directions.
func coincidingBranchLoop(b *kasm.Builder) {
	b.Func("_start")
	b.Li(rT0, 8)
	b.Label("loop")
	b.ANDI(rT1, rT0, 1)
	b.BNEZ(rT1, "next")
	b.Label("next")
	b.ADDI(rT0, rT0, -1)
	b.BNEZ(rT0, "loop")
	exitWith(b)
}

// TestCoincidingSuccessorsShareLink: both directions of a branch whose two
// successors coincide follow one link, so the block reaches the dispatcher
// once, not once per direction. The five dispatches are the first entry
// and one per link: _start->next, next->loop, loop->next and next->exit.
func TestCoincidingSuccessorsShareLink(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	coincidingBranchLoop(b)
	m, err := New(mustLink(t, b, "coincide"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r := m.Run(0); r != StopExit {
		t.Fatalf("stop=%v", r)
	}
	if c := m.Counters(); c.Dispatches != 5 || c.ChainHits == 0 {
		t.Errorf("dispatches=%d chain hits=%d, want 5 dispatches and chained iterations", c.Dispatches, c.ChainHits)
	}
}

// TestChainSurvivesRestore: Restore keeps healthy exit links and jump-cache
// entries alive — a chain transfer re-validates its target's generations, so
// there is nothing a rewind of data pages can make stale (reverted text pages
// bump their generation inside Restore itself). The proof is two-sided:
// behaviour from the snapshot is bit-identical on every replay, and warm
// replays run fully chained — zero dispatcher entries beyond the first run's.
func TestChainSurvivesRestore(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Ready()
	b.Li(rT0, 2000)
	b.Li(rA0, 0)
	b.Label("loop")
	b.ADDI(rA0, rA0, 1)
	b.ADDI(rT0, rT0, -1)
	b.BNEZ(rT0, "loop")
	exitWith(b)
	img := mustLink(t, b, "restorechain")
	m := newMachine(t, img)
	m.ReadyHook = func(m *Machine) { m.Snapshot() }

	deltas := make([]Counters, 3)
	var prev Counters
	for run := 0; run < 3; run++ {
		if run > 0 {
			m.Restore()
		}
		if r := m.Run(0); r != StopExit || m.ExitCode() != 2000 {
			t.Fatalf("run %d: stop=%v exit=%d", run, r, m.ExitCode())
		}
		cur := m.Counters()
		deltas[run] = cur.Sub(prev)
		prev = cur
	}
	if deltas[0].ChainHits == 0 {
		t.Fatal("no chaining installed on the first run")
	}
	// Warm replays must be in steady state: identical accounting run to run.
	if d1, d2 := deltas[1], deltas[2]; d1.ChainHits != d2.ChainHits || d1.Dispatches != d2.Dispatches {
		t.Errorf("warm replays diverged: run1 chain=%d dispatch=%d, run2 chain=%d dispatch=%d",
			d1.ChainHits, d1.Dispatches, d2.ChainHits, d2.Dispatches)
	}
	// Links installed on run 0 must carry over: a replay re-dispatches at
	// most through quantum boundaries already primed in the jump cache, so
	// it resolves strictly fewer transfers through the dispatcher map.
	if deltas[1].Dispatches >= deltas[0].Dispatches {
		t.Errorf("replay dispatched %d >= first run's %d — links did not survive Restore",
			deltas[1].Dispatches, deltas[0].Dispatches)
	}
	if deltas[1].ChainHits == 0 {
		t.Error("replay ran unchained")
	}
}

// TestHookOnChainedTB: installing a PC hook mid-run must take effect even
// when the hooked PC is inside a block reachable only through installed
// chain links; removing it must take effect the same way. A stale chained
// block without the hook flag slipping past the flush would miss the hook.
func TestHookOnChainedTB(t *testing.T) {
	img := chainLoopImage(t, 4000)
	m := newMachine(t, img)
	// Let the loop chain onto itself for a while.
	if r := m.Run(1000); r != StopBudget {
		t.Fatalf("stop=%v", r)
	}
	if m.Counters().ChainHits == 0 {
		t.Fatal("loop did not chain")
	}
	loopPC := m.CurrentHart().PC // mid-loop: the body is the live chained block
	hits := 0
	m.HookPC(loopPC, func(m *Machine, h *Hart) { hits++ })
	if r := m.Run(1000); r != StopBudget {
		t.Fatalf("stop=%v", r)
	}
	if hits == 0 {
		t.Error("hook on chained block never fired")
	}
	m.UnhookPC(loopPC)
	before := hits
	if r := m.Run(1000); r != StopBudget {
		t.Fatalf("stop=%v", r)
	}
	if hits != before {
		t.Errorf("hook fired %d more times after UnhookPC", hits-before)
	}
	if r := m.Run(0); r != StopExit || m.ExitCode() != 4000 {
		t.Errorf("stop=%v exit=%d, want exit 4000", r, m.ExitCode())
	}
}

// TestSelfModifyingChainTarget: patching text mid-run must invalidate both
// the cached block and every chain link into it. The loop calls victim every
// iteration, so the loop block's JAL exit holds a chain link to victim's
// block; victim's ADDI #1 is overwritten (host-side, as a firmware loader
// would) with an ADDI #2 word, and iterations after the patch add 2 — only
// observable if the stale chained translation dies.
func TestSelfModifyingChainTarget(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rT0, 1000)
	b.Li(rA0, 0)
	b.Label("loop")
	b.Call("victim")
	b.ADDI(rT0, rT0, -1)
	b.BNEZ(rT0, "loop")
	exitWith(b)
	b.Func("victim")
	b.ADDI(rA0, rA0, 1)
	b.Ret()
	img := mustLink(t, b, "selfmod")
	m := newMachine(t, img)

	victim, ok := img.Lookup("victim")
	if !ok {
		t.Fatal("victim not linked")
	}
	if r := m.Run(600); r != StopBudget { // mid-loop, chains installed
		t.Fatalf("stop=%v", r)
	}
	if m.Counters().ChainHits == 0 {
		t.Fatal("loop did not chain before the patch")
	}
	patched, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: rA0, Rs1: rA0, Imm: 2}, isa.ArchARM32E)
	if err != nil {
		t.Fatal(err)
	}
	var word [4]byte
	img.Arch.ByteOrder().PutUint32(word[:], patched)
	if err := m.WriteBytes(victim.Addr, word[:]); err != nil {
		t.Fatal(err)
	}
	if r := m.Run(0); r != StopExit {
		t.Fatalf("stop=%v fault=%v", r, m.Fault())
	}
	got := m.ExitCode()
	// k pre-patch iterations contribute 1 each, the rest 2: exit in (1000, 2000].
	if got <= 1000 || got > 2000 {
		t.Errorf("exit=%d, want in (1000, 2000] — stale translation executed", got)
	}
}

// TestSelfModifyingFaultThroughChain: when the patched chain target no
// longer decodes, the fault must surface identically whether the transfer
// re-resolves through the dispatcher or through chainNext — same kind, same
// PC.
func TestSelfModifyingFaultThroughChain(t *testing.T) {
	run := func(noChain bool) (*Machine, *kasm.Image) {
		b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
		b.Func("_start")
		b.Li(rT0, 1000)
		b.Label("loop")
		b.Call("victim")
		b.ADDI(rT0, rT0, -1)
		b.BNEZ(rT0, "loop")
		exitWith(b)
		b.Func("victim")
		b.ADDI(rA0, rA0, 1)
		b.Ret()
		img := mustLink(t, b, "selfmodfault")
		m, err := New(img, Config{NoChain: noChain})
		if err != nil {
			t.Fatal(err)
		}
		if r := m.Run(500); r != StopBudget {
			t.Fatalf("stop=%v", r)
		}
		victim, _ := img.Lookup("victim")
		if err := m.WriteBytes(victim.Addr, []byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
			t.Fatal(err)
		}
		if r := m.Run(0); r != StopFault {
			t.Fatalf("noChain=%v: stop=%v, want fault", noChain, r)
		}
		return m, img
	}
	chained, _ := run(false)
	plain, _ := run(true)
	cf, pf := chained.Fault(), plain.Fault()
	if cf.Kind != pf.Kind || cf.PC != pf.PC || cf.Addr != pf.Addr {
		t.Errorf("fault diverged: chained %+v, unchained %+v", cf, pf)
	}
	if chained.ICount() != plain.ICount() {
		t.Errorf("icnt at fault diverged: chained %d, unchained %d", chained.ICount(), plain.ICount())
	}
}

// padImage builds an image whose text spans several full pages (the shared
// translation cache only publishes blocks from pages lying entirely inside
// the text section), with an executed loop in the padded region that stores
// to buf once per iteration.
func padImage(t *testing.T) *kasm.Image {
	t.Helper()
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("buf", 8)
	b.Func("_start")
	b.La(rA1, "buf")
	b.Li(rT0, 300)
	b.Li(rA0, 0)
	b.Label("loop")
	b.Call("work")
	b.ADDI(rT0, rT0, -1)
	b.BNEZ(rT0, "loop")
	exitWith(b)
	b.Func("work") // ~3 pages of straight-line text, a store in the middle
	for i := 0; i < 3000; i++ {
		b.ADDI(rA0, rA0, 1)
		if i == 1500 {
			b.SW(rA0, rA1, 0)
		}
	}
	b.Ret()
	return mustLink(t, b, "padded")
}

// TestCountersDependOnlyOnOwnRun: each machine translates its own code, so
// two machines built from one image and run the same way report equal
// Counters in every field, whichever of them ran first. Inline arming is
// per machine too: armed, unarmed, quiet and poisoned runs each delegate
// exactly the accesses their own site policy calls for.
func TestCountersDependOnlyOnOwnRun(t *testing.T) {
	img := padImage(t)
	m1, err := New(img, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r := m1.Run(0); r != StopExit {
		t.Fatalf("m1: stop=%v fault=%v", r, m1.Fault())
	}
	m2, err := New(img, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r := m2.Run(0); r != StopExit {
		t.Fatalf("m2: stop=%v", r)
	}
	if m2.ExitCode() != m1.ExitCode() || m2.ICount() != m1.ICount() {
		t.Errorf("second machine diverged: exit %d/%d icnt %d/%d",
			m1.ExitCode(), m2.ExitCode(), m1.ICount(), m2.ICount())
	}
	if c1, c2 := m1.Counters(), m2.Counters(); c1 != c2 {
		t.Errorf("counters depend on another machine's run:\n first  %+v\n second %+v", c1, c2)
	}

	// Each run counts its delegate calls at the padded store.
	buf, _ := img.Lookup("buf")
	clean, poisoned := NewMemory(m1.RAMSize()/8, 9), NewMemory(m1.RAMSize()/8, 9)
	poisoned.Bytes()[buf.Addr/8] = 0xFA
	var site uint32
	inline := func(uint32) Site { return SiteInline }
	quietStore := func(pc uint32) Site {
		if pc == site {
			return SiteQuiet
		}
		return SiteInline
	}
	run := func(name string, shadow *Memory, policy func(uint32) Site, wantCalls int) Counters {
		t.Helper()
		m := newMachine(t, img)
		calls := 0
		m.SetProbes(ProbeSet{Mem: func(ev *MemEvent) {
			if ev.Addr == buf.Addr {
				site = ev.PC
				calls++
			}
		}})
		if policy != nil {
			m.SetSitePolicy(shadow, policy)
		}
		if r := m.Run(0); r != StopExit {
			t.Fatalf("%s: stop=%v", name, r)
		}
		if calls != wantCalls {
			t.Errorf("%s: %d delegate calls at the store, want %d", name, calls, wantCalls)
		}
		return m.Counters()
	}
	run("armed", &clean, inline, 0)
	if c := run("unarmed", nil, nil, 300); c.InlineFast+c.InlineSlow != 0 {
		t.Errorf("unarmed machine ran armed steps: inline fast=%d slow=%d", c.InlineFast, c.InlineSlow)
	}
	first := run("armed+quiet", &poisoned, quietStore, 0)
	if again := run("armed+quiet again", &poisoned, quietStore, 0); again != first {
		t.Errorf("identically armed machines counted differently:\n first  %+v\n second %+v", first, again)
	}
	run("armed, poisoned", &poisoned, inline, 300)
}

// TestInlineFastPathCounters: a SiteInline site settles clean accesses in the
// template (InlineFast, no delegate call) and falls back to the delegate the
// moment the shadow granule is poisoned (InlineSlow). Dispatch accounting is
// identical either way.
func TestInlineFastPathCounters(t *testing.T) {
	build := func() *kasm.Image {
		b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
		b.GlobalRaw("buf", 8)
		b.Func("_start")
		b.La(rA1, "buf")
		b.Li(rT0, 200)
		b.Label("loop")
		b.SW(rT0, rA1, 0)
		b.ADDI(rT0, rT0, -1)
		b.BNEZ(rT0, "loop")
		b.Li(rA0, 0)
		exitWith(b)
		return mustLink(t, b, "inline")
	}

	// Reference run: find the store's dispatch site and delegate call count.
	img := build()
	buf, _ := img.Lookup("buf")
	m1 := newMachine(t, img)
	var sitePC uint32
	calls1 := 0
	m1.SetProbes(ProbeSet{Mem: func(ev *MemEvent) {
		if ev.Addr == buf.Addr {
			sitePC = ev.PC
			calls1++
		}
	}})
	if r := m1.Run(0); r != StopExit {
		t.Fatalf("m1: stop=%v", r)
	}
	if sitePC == 0 || calls1 != 200 {
		t.Fatalf("reference run: site=%#x calls=%d", sitePC, calls1)
	}

	// Armed with a clean shadow: the template settles every dispatch.
	inline := func(uint32) Site { return SiteInline }
	shadow := NewMemory(m1.RAMSize()/8, 9)
	m2 := newMachine(t, img)
	calls2 := 0
	m2.SetProbes(ProbeSet{Mem: func(ev *MemEvent) {
		if ev.Addr == buf.Addr {
			calls2++
		}
	}})
	m2.SetSitePolicy(&shadow, inline)
	if r := m2.Run(0); r != StopExit {
		t.Fatalf("m2: stop=%v", r)
	}
	c2 := m2.Counters()
	if calls2 != 0 || c2.InlineFast != 200 || c2.InlineSlow != 0 {
		t.Errorf("clean shadow: delegate calls=%d inlineFast=%d inlineSlow=%d, want 0/200/0",
			calls2, c2.InlineFast, c2.InlineSlow)
	}
	if c2.MemProbes != m1.Counters().MemProbes {
		t.Errorf("dispatch accounting diverged: %d vs %d probes", c2.MemProbes, m1.Counters().MemProbes)
	}

	// Poisoned granule: every armed dispatch must fall back to the delegate.
	m3 := newMachine(t, img)
	calls3 := 0
	m3.SetProbes(ProbeSet{Mem: func(ev *MemEvent) {
		if ev.Addr == buf.Addr {
			calls3++
		}
	}})
	poisoned := NewMemory(m1.RAMSize()/8, 9)
	poisoned.Bytes()[buf.Addr/8] = 0xFA
	m3.SetSitePolicy(&poisoned, inline)
	if r := m3.Run(0); r != StopExit {
		t.Fatalf("m3: stop=%v", r)
	}
	c3 := m3.Counters()
	if calls3 != 200 || c3.InlineFast != 0 || c3.InlineSlow != 200 {
		t.Errorf("poisoned shadow: delegate calls=%d inlineFast=%d inlineSlow=%d, want 200/0/200",
			calls3, c3.InlineFast, c3.InlineSlow)
	}

	// Probes replaced after arming: the policy vouched only for the old
	// delegate, so the new one must see every access.
	m4 := newMachine(t, img)
	m4.SetSitePolicy(&shadow, inline)
	calls4 := 0
	m4.SetProbes(ProbeSet{Mem: func(ev *MemEvent) {
		if ev.Addr == buf.Addr {
			calls4++
		}
	}})
	if r := m4.Run(0); r != StopExit {
		t.Fatalf("m4: stop=%v", r)
	}
	if c4 := m4.Counters(); calls4 != 200 || c4.InlineFast != 0 {
		t.Errorf("probes replaced after arming: delegate calls=%d inlineFast=%d, want 200/0",
			calls4, c4.InlineFast)
	}
}

// TestSitePolicyTable: each of the three site states, applied to a
// load/store site, a SANCK site and a FENCE, delegates and counts exactly as
// its row says. The shadow poisons the accessed granule, so an inline site
// must fall back to the delegate while a quiet one must not. A FENCE is no
// site: the policy is never asked about it and nothing is counted.
func TestSitePolicyTable(t *testing.T) {
	const n = 200
	loop := func(mode kasm.SanitizeMode, body func(b *kasm.Builder)) *kasm.Image {
		b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E, Sanitize: mode})
		b.GlobalRaw("buf", 8)
		b.Func("_start")
		b.La(rA1, "buf")
		b.Li(rT0, n)
		b.Label("loop")
		body(b)
		b.ADDI(rT0, rT0, -1)
		b.BNEZ(rT0, "loop")
		b.Li(rA0, 0)
		exitWith(b)
		return mustLink(t, b, "site")
	}
	store := func(b *kasm.Builder) { b.SW(rT0, rA1, 0) }
	kinds := []struct {
		name  string
		img   *kasm.Image
		mem   bool // the site dispatches to the Mem probe, not the Sanck one
		sites int  // dispatch sites the policy is asked about
	}{
		{"load/store", loop(kasm.SanNone, store), true, 1},
		{"sanck", loop(kasm.SanEmbsanC, store), false, 1},
		{"fence", loop(kasm.SanNone, func(b *kasm.Builder) { b.FENCE() }), false, 0},
	}
	type counts struct {
		calls              int
		probes, fast, slow uint64
	}
	for _, tc := range []struct {
		kind  string
		state Site
		want  counts
	}{
		{"load/store", SiteCheck, counts{n, n, 0, 0}},
		{"load/store", SiteInline, counts{n, n, 0, n}},
		{"load/store", SiteQuiet, counts{0, n, n, 0}},
		{"sanck", SiteCheck, counts{n, n, 0, 0}},
		{"sanck", SiteInline, counts{n, n, 0, n}},
		{"sanck", SiteQuiet, counts{0, n, n, 0}},
		{"fence", SiteCheck, counts{}},
		{"fence", SiteInline, counts{}},
		{"fence", SiteQuiet, counts{}},
	} {
		for _, k := range kinds {
			if k.name != tc.kind {
				continue
			}
			buf, _ := k.img.Lookup("buf")
			m := newMachine(t, k.img)
			var got counts
			probe := func(ev *MemEvent) {
				if ev.Addr == buf.Addr {
					got.calls++
				}
			}
			if k.mem {
				m.SetProbes(ProbeSet{Mem: probe})
			} else {
				m.SetProbes(ProbeSet{Sanck: probe})
			}
			shadow := NewMemory(m.RAMSize()/8, 9)
			shadow.Bytes()[buf.Addr/8] = 0xFA
			asked := map[uint32]bool{}
			m.SetSitePolicy(&shadow, func(pc uint32) Site {
				asked[pc] = true
				return tc.state
			})
			if r := m.Run(0); r != StopExit {
				t.Fatalf("%s/%d: stop=%v", tc.kind, tc.state, r)
			}
			c := m.Counters()
			other := c.SanckTraps
			got.probes = c.MemProbes
			if !k.mem {
				other, got.probes = c.MemProbes, c.SanckTraps
			}
			got.fast, got.slow = c.InlineFast, c.InlineSlow
			if got != tc.want || other != 0 {
				t.Errorf("%s/%d: got %+v (other probe class %d), want %+v", tc.kind, tc.state, got, other, tc.want)
			}
			if len(asked) != k.sites {
				t.Errorf("%s/%d: policy asked about %d sites, want %d", tc.kind, tc.state, len(asked), k.sites)
			}
		}
	}
}
