package emu

import (
	"math"

	"embsan/internal/isa"
	"embsan/internal/obs"
)

// Translation-block engine. Guest code is decoded once per (pc, generation)
// into a block of steps; instrumentation callbacks are attached to the steps
// while translating — the direct analogue of EMBSAN modifying QEMU/TCG's
// translation templates. Code with no registered probes carries no probe
// flags and pays nothing at execution time.
//
// Two fast paths keep the dispatch loop off the hot path (docs/TRANSLATE.md):
//
//   - TB chaining: blocks record their static successor PCs at translation
//     time, and runHart patches executed exits with direct links to the
//     successor TB, so straight-line code transfers block-to-block without
//     re-entering the dispatcher. Indirect exits (JALR — function returns and
//     pointer calls) have no static successor to patch, so they go through a
//     direct-mapped jump cache keyed by target PC instead. Links and jump
//     cache entries follow one validity rule: their chainGen stamp must be
//     current. Every TB flush and every text-page invalidation (a guest or
//     host write to text, or Restore reverting such a write) bumps chainGen,
//     so a followed link costs one compare. Healthy links survive Restore,
//     so replay loops run chained end to end.
//   - Inline shadow checks: a site the site policy (SetSitePolicy) marks
//     SiteInline tests its access against the sanitizer shadow inside the
//     translated template and skips the delegate call entirely when it
//     provably cannot act. Dispatch accounting (counters, trace, profile) is
//     identical on both paths, so fast-path runs stay byte-comparable.
//
// Each machine translates its own code: the block cache is per machine, so
// every engine counter is a function of that machine's execution alone.

const maxTBLen = 64

type stepFlags uint8

const (
	stepMem stepFlags = 1 << iota
	stepSanck
	stepHook
	stepInline // SiteInline: the in-template shadow check guards the delegate
	stepQuiet  // SiteQuiet (with stepInline): the delegate never acts
)

type step struct {
	inst  isa.Inst
	pc    uint32
	flags stepFlags
}

type tb struct {
	pc    uint32
	steps []step
	gen   uint32 // globalGen at translation time
	pgen  uint32 // pageGen of the block's page at translation time
	cover uint32 // coverGen when the coverage hook last saw this block

	// Static successor PCs, 0 = none. A conditional branch has both; a JAL
	// or a block that simply runs off its end has one; indirect or
	// exceptional exits (JALR, ECALL, EBREAK, HALT, YIELD) have neither.
	succTaken uint32
	succFall  uint32

	// Chain links to the successor TBs, valid only while the stamped
	// chainGen is current.
	linkTaken, linkFall *tb
	cgenTaken, cgenFall uint64
}

func (m *Machine) tbFor(pc uint32) (*tb, FaultKind) {
	m.ctr.dispatches.Inc()
	if !m.cfg.NoTBCache {
		if t := m.tbs[pc]; t != nil && t.gen == m.globalGen && t.pgen == m.pageGen[pc>>pageShift] {
			m.ctr.tbHits.Inc()
			return t, FaultNone
		}
	}
	m.ctr.tbMisses.Inc()
	t, f := m.translate(pc)
	if f != FaultNone {
		return nil, f
	}
	if !m.cfg.NoTBCache {
		m.tbs[pc] = t
	}
	return t, FaultNone
}

// jmpCacheSize is the direct-mapped jump cache's entry count (power of two).
// 1024 entries cover the return sites of a deep call tree; collisions just
// cost a dispatcher trip, exactly like an unchained transfer.
const jmpCacheSize = 1024

type jmpEntry struct {
	t    *tb
	cgen uint64 // chainGen at install time, same severing rule as exit links
}

// lookupTB resolves a transfer that arrives without an exit link: indirect
// exits (JALR returns, function-pointer calls), quantum resumption, and the
// first entry into a block graph. With chaining enabled it consults the jump
// cache first — the indirect-exit analogue of the patched exit links, under
// the identical validity rule plus a collision check — and falls back to the
// dispatcher, installing the resolved block for next time. Counter semantics
// match edge chaining: every transfer is either a chain hit or a dispatcher
// entry, never both.
func (m *Machine) lookupTB(pc uint32) (*tb, FaultKind) {
	if m.cfg.NoChain {
		return m.tbFor(pc)
	}
	e := &m.jmpCache[(pc>>2)&(jmpCacheSize-1)]
	if e.cgen == m.chainGen && e.t.pc == pc {
		m.ctr.chainHits.Inc()
		return e.t, FaultNone
	}
	t, f := m.tbFor(pc)
	if f != FaultNone {
		return nil, f
	}
	e.t, e.cgen = t, m.chainGen
	return t, FaultNone
}

// chainNext resolves the successor TB for an exit edge whose link is missing
// or severed: through the dispatcher, installing the link for next time.
// runHart follows valid links itself.
func (m *Machine) chainNext(t *tb, h *Hart, taken bool) (*tb, FaultKind) {
	nt, f := m.tbFor(h.PC)
	if f != FaultNone {
		return nil, f
	}
	if taken {
		t.linkTaken, t.cgenTaken = nt, m.chainGen
	} else {
		t.linkFall, t.cgenFall = nt, m.chainGen
	}
	return nt, FaultNone
}

func (m *Machine) translate(pc uint32) (*tb, FaultKind) {
	if pc&3 != 0 || pc < NullGuardSize || uint64(pc)+4 > uint64(len(m.bus.ram.bytes)) {
		return nil, FaultBadFetch
	}
	t := &tb{pc: pc, gen: m.globalGen, pgen: m.pageGen[pc>>pageShift]}
	pageEnd := (pc &^ (pageSize - 1)) + pageSize
	for cur := pc; cur < pageEnd && len(t.steps) < maxTBLen; cur += 4 {
		word := m.arch.Word(m.bus.ram.bytes[cur:])
		inst, err := isa.Decode(word, m.arch)
		if err != nil {
			if cur == pc {
				return nil, FaultIllegalInst
			}
			break // let execution fault when (if) it reaches the bad word
		}
		var fl stepFlags
		switch isa.ClassOf(inst.Op) {
		case isa.ClassLoad, isa.ClassStore, isa.ClassAtomic:
			if m.probes.Mem != nil {
				fl = m.siteFlags(cur, stepMem)
			}
		case isa.ClassSanck:
			if m.probes.Sanck != nil {
				fl = m.siteFlags(cur, stepSanck)
			}
		}
		if _, hooked := m.pcHooks[cur]; hooked {
			fl |= stepHook
		}
		t.steps = append(t.steps, step{inst: inst, pc: cur, flags: fl})
		if isa.Terminates(inst.Op) {
			break
		}
	}
	if len(t.steps) == 0 {
		return nil, FaultBadFetch
	}
	last := t.steps[len(t.steps)-1]
	switch last.inst.Op {
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		t.succTaken = last.pc + uint32(last.inst.Imm)*4
		t.succFall = last.pc + 4
	case isa.OpJAL:
		t.succTaken = last.pc + uint32(last.inst.Imm)*4
	case isa.OpJALR, isa.OpECALL, isa.OpEBREAK, isa.OpHALT, isa.OpYIELD:
		// Indirect or exceptional exit: no static successor to chain to.
	default:
		// The block ran off its end (page boundary, length cap, or a word
		// that will fault if reached): execution falls through to last.pc+4.
		t.succFall = last.pc + 4
	}
	m.ctr.transInsts.Add(uint64(len(t.steps)))
	return t, FaultNone
}

// siteFlags asks the site policy about the access or SANCK site at pc and
// returns its step flags; probe is the site's dispatch flag (stepMem or
// stepSanck).
func (m *Machine) siteFlags(pc uint32, probe stepFlags) stepFlags {
	if m.site == nil {
		return probe
	}
	switch m.site(pc) {
	case SiteInline:
		return probe | stepInline
	case SiteQuiet:
		return probe | stepInline | stepQuiet
	}
	return probe
}

// invalidateRange stales the TBs of text pages a write to [addr, addr+size)
// overlaps, severs every link, and records the pages for Restore. A write
// that misses the text bytes, even on a page shared with text, does nothing.
func (m *Machine) invalidateRange(addr, size uint32) {
	textStart, textEnd := m.image.Base, m.image.TextEnd()
	if addr >= textEnd || addr+size <= textStart {
		return
	}
	first := addr >> pageShift
	last := (addr + size - 1) >> pageShift
	for p := first; p <= last; p++ {
		m.pageGen[p]++
		m.chainGen++
		m.textDirty.add(p)
	}
}

type tbExit uint8

const (
	tbDone tbExit = iota
	tbYield
	tbStall
	tbStop
	tbHalt
)

// Run executes until the machine stops or the budget (0 = unlimited) of
// retired instructions is consumed. It returns the stop reason; a budget
// stop leaves the machine resumable by calling Run again.
func (m *Machine) Run(budget uint64) StopReason {
	if m.stop == StopBudget || m.stop == StopRequest {
		m.stop = StopNone
	}
	target := uint64(math.MaxUint64)
	if budget > 0 {
		target = m.icnt + budget
	}
	for m.stop == StopNone {
		h := m.pickHart()
		if h == nil {
			// Nothing runnable now: either everything halted, or every
			// active hart is suspended — fast-forward time to the earliest
			// resume point.
			earliest := uint64(math.MaxUint64)
			for i := range m.harts {
				hh := &m.harts[i]
				if hh.Active && !hh.Halted && hh.resumeAt > m.icnt {
					if hh.resumeAt < earliest {
						earliest = hh.resumeAt
					}
				}
			}
			if earliest == math.MaxUint64 {
				m.stop = StopHalted
				break
			}
			m.icnt = earliest
			continue
		}
		quantum := uint64(m.cfg.Quantum)
		if m.cfg.Seed != 0 {
			quantum = quantum/2 + uint64(m.nextRand())%quantum
		}
		m.runHart(h, quantum, target)
		if m.stop == StopNone && m.icnt >= target {
			m.stop = StopBudget
		}
	}
	return m.stop
}

func (m *Machine) pickHart() *Hart {
	n := len(m.harts)
	for i := 1; i <= n; i++ {
		idx := (m.cur + i) % n
		h := &m.harts[idx]
		if h.Active && !h.Halted && h.resumeAt <= m.icnt {
			m.cur = idx
			return h
		}
	}
	return nil
}

func (m *Machine) runHart(h *Hart, quantum, target uint64) {
	end := m.icnt + quantum
	if end > target {
		end = target
	}
	// t carries the block resolved by the previous iteration's chain link;
	// nil sends the transfer through the dispatcher. Per-block work other
	// than the lookup — coverage, trace events, profiling — runs identically
	// on both paths, which is what keeps traces byte-identical with chaining
	// on or off.
	var t *tb
	for m.stop == StopNone && m.icnt < end {
		if t == nil {
			var f FaultKind
			t, f = m.lookupTB(h.PC)
			if f != FaultNone {
				m.raiseFault(f, h, h.PC, h.PC)
				return
			}
		}
		if t.cover != m.coverGen {
			t.cover = m.coverGen
			if m.coverHook != nil {
				m.coverHook(t.pc)
			}
		}
		enterPC := h.PC
		start := m.icnt
		if m.trace != nil {
			m.trace.Emit(obs.Event{ICnt: start, PC: enterPC, Kind: obs.EvTBEnter, Hart: uint8(h.ID)})
		}
		ex := m.execTB(h, t, end)
		if m.prof != nil {
			m.prof.AddInsts(enterPC, m.icnt-start)
		}
		if m.trace != nil {
			m.trace.Emit(obs.Event{ICnt: m.icnt, PC: enterPC, Arg: uint32(ex), Kind: obs.EvTBExit, Hart: uint8(h.ID)})
		}
		switch ex {
		case tbYield, tbStall, tbStop, tbHalt:
			return
		}
		cur := t
		t = nil
		// Follow a chain link only for a completed block exit that will
		// actually execute next (same guard as the loop head): a budget stop
		// leaves h.PC mid-block, where a coincidental match with a static
		// successor must not bypass the dispatcher.
		// A link whose stamp matches chainGen is followed on the spot.
		if !m.cfg.NoChain && m.stop == StopNone && m.icnt < end {
			var f FaultKind
			if cur.succTaken != 0 && h.PC == cur.succTaken {
				if cur.cgenTaken == m.chainGen {
					t = cur.linkTaken
					m.ctr.chainHits.Inc()
				} else {
					t, f = m.chainNext(cur, h, true)
				}
			} else if cur.succFall != 0 && h.PC == cur.succFall {
				if cur.cgenFall == m.chainGen {
					t = cur.linkFall
					m.ctr.chainHits.Inc()
				} else {
					t, f = m.chainNext(cur, h, false)
				}
			}
			if f != FaultNone {
				m.raiseFault(f, h, h.PC, h.PC)
				return
			}
		}
	}
}

// raiseFault stops the machine on a guest fault at pc, leaving the hart's PC
// on the faulting instruction whichever block boundary it ran from.
func (m *Machine) raiseFault(kind FaultKind, h *Hart, pc, addr uint32) {
	h.PC = pc
	m.fault = &Fault{Kind: kind, Hart: h.ID, PC: pc, Addr: addr}
	m.stop = StopFault
}

func setReg(h *Hart, rd uint8, v uint32) {
	if rd != 0 {
		h.Regs[rd] = v
	}
}

// execTB runs the steps of t on hart h until the block ends, the
// per-quantum instruction limit is hit, or something exceptional happens.
// Every step retires exactly one instruction unless it leaves the block, so
// the steps that fit the limit are counted once, up front.
func (m *Machine) execTB(h *Hart, t *tb, end uint64) tbExit {
	steps := t.steps
	if rem := end - m.icnt; uint64(len(steps)) > rem {
		steps = steps[:rem]
	}
	r := &h.Regs
	for i := range steps {
		s := &steps[i]
		if s.flags&stepHook != 0 {
			m.pcHooks[s.pc](m, h)
			if m.stop != StopNone {
				h.PC = s.pc
				return tbStop
			}
		}
		if m.TraceHook != nil {
			m.TraceHook(h.ID, s.pc, s.inst)
		}
		in := &s.inst
		m.icnt++
		switch in.Op {
		// ---- ALU reg-reg ----
		case isa.OpADD:
			setReg(h, in.Rd, r[in.Rs1]+r[in.Rs2])
		case isa.OpSUB:
			setReg(h, in.Rd, r[in.Rs1]-r[in.Rs2])
		case isa.OpAND:
			setReg(h, in.Rd, r[in.Rs1]&r[in.Rs2])
		case isa.OpOR:
			setReg(h, in.Rd, r[in.Rs1]|r[in.Rs2])
		case isa.OpXOR:
			setReg(h, in.Rd, r[in.Rs1]^r[in.Rs2])
		case isa.OpSLL:
			setReg(h, in.Rd, r[in.Rs1]<<(r[in.Rs2]&31))
		case isa.OpSRL:
			setReg(h, in.Rd, r[in.Rs1]>>(r[in.Rs2]&31))
		case isa.OpSRA:
			setReg(h, in.Rd, uint32(int32(r[in.Rs1])>>(r[in.Rs2]&31)))
		case isa.OpMUL:
			setReg(h, in.Rd, r[in.Rs1]*r[in.Rs2])
		case isa.OpMULHU:
			setReg(h, in.Rd, uint32((uint64(r[in.Rs1])*uint64(r[in.Rs2]))>>32))
		case isa.OpDIV:
			a, b := int32(r[in.Rs1]), int32(r[in.Rs2])
			if b == 0 {
				setReg(h, in.Rd, 0xFFFFFFFF)
			} else if a == math.MinInt32 && b == -1 {
				setReg(h, in.Rd, uint32(a))
			} else {
				setReg(h, in.Rd, uint32(a/b))
			}
		case isa.OpDIVU:
			if r[in.Rs2] == 0 {
				setReg(h, in.Rd, 0xFFFFFFFF)
			} else {
				setReg(h, in.Rd, r[in.Rs1]/r[in.Rs2])
			}
		case isa.OpREM:
			a, b := int32(r[in.Rs1]), int32(r[in.Rs2])
			if b == 0 {
				setReg(h, in.Rd, uint32(a))
			} else if a == math.MinInt32 && b == -1 {
				setReg(h, in.Rd, 0)
			} else {
				setReg(h, in.Rd, uint32(a%b))
			}
		case isa.OpREMU:
			if r[in.Rs2] == 0 {
				setReg(h, in.Rd, r[in.Rs1])
			} else {
				setReg(h, in.Rd, r[in.Rs1]%r[in.Rs2])
			}
		case isa.OpSLT:
			setReg(h, in.Rd, b2u(int32(r[in.Rs1]) < int32(r[in.Rs2])))
		case isa.OpSLTU:
			setReg(h, in.Rd, b2u(r[in.Rs1] < r[in.Rs2]))

		// ---- ALU reg-imm ----
		case isa.OpADDI:
			setReg(h, in.Rd, r[in.Rs1]+uint32(in.Imm))
		case isa.OpANDI:
			setReg(h, in.Rd, r[in.Rs1]&uint32(in.Imm))
		case isa.OpORI:
			setReg(h, in.Rd, r[in.Rs1]|uint32(in.Imm))
		case isa.OpXORI:
			setReg(h, in.Rd, r[in.Rs1]^uint32(in.Imm))
		case isa.OpSLLI:
			setReg(h, in.Rd, r[in.Rs1]<<(uint32(in.Imm)&31))
		case isa.OpSRLI:
			setReg(h, in.Rd, r[in.Rs1]>>(uint32(in.Imm)&31))
		case isa.OpSRAI:
			setReg(h, in.Rd, uint32(int32(r[in.Rs1])>>(uint32(in.Imm)&31)))
		case isa.OpSLTI:
			setReg(h, in.Rd, b2u(int32(r[in.Rs1]) < in.Imm))
		case isa.OpSLTIU:
			setReg(h, in.Rd, b2u(r[in.Rs1] < uint32(in.Imm)))
		case isa.OpLUI:
			setReg(h, in.Rd, uint32(in.Imm)<<12)
		case isa.OpAUIPC:
			setReg(h, in.Rd, s.pc+uint32(in.Imm)<<12)

		// ---- loads ----
		case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLRW:
			addr := r[in.Rs1] + uint32(in.Imm)
			size := isa.AccessSize(in.Op)
			if s.flags&stepMem != 0 {
				if ex := m.fireMem(h, s.pc, addr, size, false, in.Op == isa.OpLRW, s.flags); ex != tbDone {
					return ex
				}
			}
			v, f := m.bus.read(addr, size)
			if f != FaultNone {
				m.raiseFault(f, h, s.pc, addr)
				return tbStop
			}
			switch in.Op {
			case isa.OpLB:
				v = uint32(int32(int8(v)))
			case isa.OpLH:
				v = uint32(int32(int16(v)))
			}
			if in.Op == isa.OpLRW {
				h.resValid, h.resAddr = true, addr
				m.resHeld = true
			}
			setReg(h, in.Rd, v)

		// ---- stores ----
		case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSCW:
			addr := r[in.Rs1] + uint32(in.Imm)
			if in.Op == isa.OpSCW {
				addr = r[in.Rs1]
				if !h.resValid || h.resAddr != addr {
					h.resValid = false
					setReg(h, in.Rd, 1)
					break
				}
			}
			size := isa.AccessSize(in.Op)
			if s.flags&stepMem != 0 {
				if ex := m.fireMem(h, s.pc, addr, size, true, in.Op == isa.OpSCW, s.flags); ex != tbDone {
					return ex
				}
			}
			if f := m.write(addr, size, r[in.Rs2]); f != FaultNone {
				m.raiseFault(f, h, s.pc, addr)
				return tbStop
			}
			m.clearReservations(addr, h)
			if in.Op == isa.OpSCW {
				h.resValid = false
				setReg(h, in.Rd, 0)
			}

		// ---- atomics ----
		case isa.OpAMOADDW, isa.OpAMOSWAPW, isa.OpAMOORW, isa.OpAMOANDW:
			addr := r[in.Rs1]
			if s.flags&stepMem != 0 {
				if ex := m.fireMem(h, s.pc, addr, 4, true, true, s.flags); ex != tbDone {
					return ex
				}
			}
			old, f := m.bus.read(addr, 4)
			if f != FaultNone {
				m.raiseFault(f, h, s.pc, addr)
				return tbStop
			}
			var nv uint32
			switch in.Op {
			case isa.OpAMOADDW:
				nv = old + r[in.Rs2]
			case isa.OpAMOSWAPW:
				nv = r[in.Rs2]
			case isa.OpAMOORW:
				nv = old | r[in.Rs2]
			case isa.OpAMOANDW:
				nv = old & r[in.Rs2]
			}
			if f := m.write(addr, 4, nv); f != FaultNone {
				m.raiseFault(f, h, s.pc, addr)
				return tbStop
			}
			m.clearReservations(addr, h)
			setReg(h, in.Rd, old)

		// ---- branches ----
		case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
			var take bool
			a, b := r[in.Rs1], r[in.Rs2]
			if m.CmpHook != nil && a != b && (in.Op == isa.OpBEQ || in.Op == isa.OpBNE) {
				m.CmpHook(a, b)
			}
			switch in.Op {
			case isa.OpBEQ:
				take = a == b
			case isa.OpBNE:
				take = a != b
			case isa.OpBLT:
				take = int32(a) < int32(b)
			case isa.OpBGE:
				take = int32(a) >= int32(b)
			case isa.OpBLTU:
				take = a < b
			case isa.OpBGEU:
				take = a >= b
			}
			if take {
				h.PC = s.pc + uint32(in.Imm)*4
			} else {
				h.PC = s.pc + 4
			}
			return tbDone

		// ---- jumps ----
		case isa.OpJAL:
			if in.Rd == isa.RegRA {
				h.callPush(s.pc)
			}
			setReg(h, in.Rd, s.pc+4)
			h.PC = s.pc + uint32(in.Imm)*4
			return tbDone
		case isa.OpJALR:
			target := (r[in.Rs1] + uint32(in.Imm)) &^ 1
			if in.Rd == isa.RegRA {
				h.callPush(s.pc)
			} else {
				h.callRet(target)
			}
			setReg(h, in.Rd, s.pc+4)
			h.PC = target
			return tbDone

		// ---- system ----
		case isa.OpHCALL:
			if fn, ok := m.hypers[in.Imm]; ok {
				h.PC = s.pc // give handlers an accurate PC
				fn(m, h)
				if m.stop != StopNone {
					h.PC = s.pc + 4
					return tbStop
				}
			}
		case isa.OpECALL:
			m.raiseFault(FaultIllegalInst, h, s.pc, s.pc)
			return tbStop
		case isa.OpEBREAK:
			m.raiseFault(FaultBreakpoint, h, s.pc, s.pc)
			return tbStop
		case isa.OpHALT:
			h.Halted = true
			h.PC = s.pc
			return tbHalt
		case isa.OpYIELD:
			h.PC = s.pc + 4
			return tbYield
		case isa.OpFENCE:
			// ordering no-op
		case isa.OpCSRR:
			var v uint32
			switch in.Imm {
			case isa.CSRHartID:
				v = uint32(h.ID)
			case isa.CSRCycles:
				v = uint32(m.icnt)
			case isa.CSRNHarts:
				v = uint32(len(m.harts))
			case isa.CSRRand:
				v = m.nextRand()
			case isa.CSRScratch0:
				v = h.Scratch[0]
			case isa.CSRScratch1:
				v = h.Scratch[1]
			}
			setReg(h, in.Rd, v)
		case isa.OpCSRW:
			switch in.Imm {
			case isa.CSRScratch0:
				h.Scratch[0] = r[in.Rs1]
			case isa.CSRScratch1:
				h.Scratch[1] = r[in.Rs1]
			}

		case isa.OpSANCK:
			if s.flags&stepSanck != 0 {
				m.ctr.sanckTraps.Inc()
				addr := r[in.Rs1] + uint32(in.Imm)
				size, write, atomic := isa.SanckDecode(in.Rd)
				if m.trace != nil {
					m.trace.Emit(obs.Event{ICnt: m.icnt, PC: s.pc, Addr: addr,
						Arg: obs.PackAccess(uint32(size), write, atomic), Kind: obs.EvSanck, Hart: uint8(h.ID)})
				}
				if m.prof != nil {
					m.prof.AddDispatch(s.pc)
				}
				if s.flags&stepInline != 0 {
					if s.flags&stepQuiet != 0 || m.inlineClean(addr, size) {
						m.ctr.inlineFast.Inc()
						break
					}
					m.ctr.inlineSlow.Inc()
				}
				ev := m.event(h.ID, s.pc, addr, size, write, atomic)
				m.probes.Sanck(ev)
				if ev.StallInsts > 0 {
					h.PC = s.pc
					h.resumeAt = m.icnt + ev.StallInsts
					return tbStall
				}
				if m.stop != StopNone {
					h.PC = s.pc + 4
					return tbStop
				}
			}

		default:
			m.raiseFault(FaultIllegalInst, h, s.pc, s.pc)
			return tbStop
		}
	}
	if len(steps) < len(t.steps) {
		h.PC = t.steps[len(steps)].pc
		return tbDone
	}
	h.PC = t.steps[len(t.steps)-1].pc + 4
	return tbDone
}

// fireMem invokes the memory probe and translates its outcome. It returns
// tbDone when execution should proceed with the access. An armed site
// performs the full dispatch accounting, then skips only the delegate call
// itself when the in-template check settles the access.
func (m *Machine) fireMem(h *Hart, pc, addr, size uint32, write, atomic bool, fl stepFlags) tbExit {
	m.ctr.memProbes.Inc()
	if m.trace != nil {
		m.trace.Emit(obs.Event{ICnt: m.icnt, PC: pc, Addr: addr,
			Arg: obs.PackAccess(size, write, atomic), Kind: obs.EvMemProbe, Hart: uint8(h.ID)})
	}
	if m.prof != nil {
		m.prof.AddDispatch(pc)
	}
	if fl&stepInline != 0 {
		if fl&stepQuiet != 0 || m.inlineClean(addr, size) {
			m.ctr.inlineFast.Inc()
			return tbDone
		}
		m.ctr.inlineSlow.Inc()
	}
	ev := m.event(h.ID, pc, addr, size, write, atomic)
	m.probes.Mem(ev)
	if ev.StallInsts > 0 {
		h.PC = pc
		h.resumeAt = m.icnt + ev.StallInsts
		// Undo the retired-instruction count for the access we did not run.
		m.icnt--
		return tbStall
	}
	if m.stop != StopNone {
		h.PC = pc
		return tbStop
	}
	return tbDone
}

// event refills the reused probe event in place, one field at a time: a
// composite-literal assignment stalls store forwarding on this hot path.
// StallInsts is an out-parameter, so it restarts at 0 on every dispatch.
func (m *Machine) event(hart int, pc, addr, size uint32, write, atomic bool) *MemEvent {
	ev := &m.memEv
	ev.Hart, ev.PC, ev.Addr, ev.Size = hart, pc, addr, size
	ev.Write, ev.Atomic, ev.StallInsts = write, atomic, 0
	return ev
}

// inlineClean is the in-template shadow test for an access of at most 8
// bytes (at most two granules). It is true only where a pure-KASAN delegate
// provably does nothing:
//
//   - device memory (addr >= MMIOBase), which the delegate never sanitizes;
//   - an access at or above the null guard whose granules are all fully
//     addressable (shadow byte 0);
//   - a single-granule access ending inside the valid prefix of a partial
//     granule (shadow code 1..7) — exactly when Shadow.Check passes it.
//
// Poison, partial granules straddled by the access, the null guard and
// out-of-shadow addresses fall through to the delegate.
func (m *Machine) inlineClean(addr, size uint32) bool {
	if addr >= MMIOBase {
		return true
	}
	sh := m.siteShadow.bytes
	g, last := addr>>3, (addr+size-1)>>3
	if addr < NullGuardSize || last >= uint32(len(sh)) {
		return false
	}
	sb := sh[g]
	if sb != 0 && sb < 8 { // partial: an access leaving the granule never fits
		return addr&7+size <= uint32(sb)
	}
	return sb|sh[last] == 0
}

// clearReservations breaks other harts' LR reservations on addr after a
// store. While no hart holds one there is nothing to sweep.
func (m *Machine) clearReservations(addr uint32, except *Hart) {
	if !m.resHeld {
		return
	}
	held := false
	for i := range m.harts {
		hh := &m.harts[i]
		if hh != except && hh.resValid && hh.resAddr == addr {
			hh.resValid = false
		}
		held = held || hh.resValid
	}
	m.resHeld = held
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
