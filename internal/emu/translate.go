package emu

import (
	"encoding/binary"
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

// regMask masks a decoded register field into the register file; the
// decoder never yields a field at or past isa.NumRegs, a power of two.
const regMask = isa.NumRegs - 1

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
	size  uint8 // access width of a load, store or atomic
}

// Exit edges of a block. taken and fall index its successor arrays; an
// indirect exit has no link to follow, and a quantum cut mid-block leaves
// nothing to chain.
const (
	exitTaken = iota
	exitFall
	exitIndirect
	exitRan // sentinel: no step left the block
)

type tb struct {
	pc     uint32
	steps  []step
	gen    uint32 // globalGen at translation time
	pgen   uint32 // pageGen of the block's page at translation time
	cover  uint32 // coverGen when the coverage hook last saw this block
	hooked bool   // some step carries a pc hook
	// fall is the link a not-taken branch follows: exitFall, or exitTaken
	// when both successors are the same address, so the one link serves
	// both directions.
	fall uint8

	// Static successor PCs by exit edge, 0 = none. A conditional branch has
	// both; a JAL has a taken one; a block that simply runs off its end has
	// a fall-through one; indirect or exceptional exits (JALR, ECALL,
	// EBREAK, HALT, YIELD) have neither.
	succ [2]uint32

	// Chain links to the successor TBs, valid only while the stamped
	// chainGen is current.
	link [2]*tb
	cgen [2]uint64
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
// dispatcher, installing the resolved block for next time. hit reports a
// jump-cache hit: every transfer is either a chain hit or a dispatcher
// entry, never both.
func (m *Machine) lookupTB(pc uint32) (t *tb, hit bool, f FaultKind) {
	if m.cfg.NoChain {
		t, f = m.tbFor(pc)
		return t, false, f
	}
	e := &m.jmpCache[(pc>>2)&(jmpCacheSize-1)]
	if e.cgen == m.chainGen && e.t.pc == pc {
		return e.t, true, FaultNone
	}
	if t, f = m.tbFor(pc); f == FaultNone {
		e.t, e.cgen = t, m.chainGen
	}
	return t, false, f
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
			t.hooked = true
		}
		t.steps = append(t.steps, step{inst: inst, pc: cur, flags: fl, size: uint8(isa.AccessSize(inst.Op))})
		if isa.Terminates(inst.Op) {
			break
		}
	}
	if len(t.steps) == 0 {
		return nil, FaultBadFetch
	}
	last := t.steps[len(t.steps)-1]
	t.fall = exitFall
	switch last.inst.Op {
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		t.succ = [2]uint32{last.pc + uint32(last.inst.Imm)*4, last.pc + 4}
		if t.succ[exitTaken] == t.succ[exitFall] {
			t.fall = exitTaken
		}
	case isa.OpJAL:
		t.succ[exitTaken] = last.pc + uint32(last.inst.Imm)*4
	case isa.OpJALR, isa.OpECALL, isa.OpEBREAK, isa.OpHALT, isa.OpYIELD:
		// Indirect or exceptional exit: no static successor to chain to.
	default:
		// The block ran off its end (page boundary, length cap, or a word
		// that will fault if reached): execution falls through to last.pc+4.
		t.succ[exitFall] = last.pc + 4
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
	idx := m.cur
	for i := 0; i < n; i++ {
		if idx++; idx == n {
			idx = 0
		}
		h := &m.harts[idx]
		if h.Active && !h.Halted && h.resumeAt <= m.icnt {
			m.cur = idx
			return h
		}
	}
	return nil
}

// runHart runs hart h for one quantum: block after block in one loop, so a
// chained transfer never leaves it. Per-block work other than the lookup —
// coverage, trace events, profiling — runs identically whether the block
// came from a link, the jump cache or the dispatcher, which is what keeps
// traces byte-identical with chaining on or off.
//
// Chain hits and the dispatches the armed check settles in the template are
// counted in locals and added to their instruments once, on return: every
// reader of those instruments runs after Run returns. The template settles
// an access only while trace and profile are off, so a traced run emits the
// same dispatch events whichever path an access takes.
func (m *Machine) runHart(h *Hart, quantum, target uint64) {
	end := m.icnt + quantum
	if end > target {
		end = target
	}
	var chainHits, settledMem, settledSanck uint64
	tr, pr := m.trace, m.prof // set only between runs
	plain := tr == nil && pr == nil
	r := &h.Regs
	// Plain RAM: a load inside it reads the bytes in the guest byte order,
	// and a store also past the text needs no device, fault or invalidation.
	ram, big := m.bus.ram.bytes, m.bus.big
	ramSpan := uint64(len(ram)) - NullGuardSize
	dataLo := max(m.image.TextEnd(), NullGuardSize)
	dataSpan := uint64(len(ram)) - uint64(dataLo)

	// t carries the block resolved by the previous iteration's chain link;
	// nil sends the transfer through the jump cache and the dispatcher.
	var t *tb
	for m.stop == StopNone && m.icnt < end {
		if t == nil {
			var hit bool
			var f FaultKind
			if t, hit, f = m.lookupTB(h.PC); f != FaultNone {
				m.raiseFault(f, h, h.PC, h.PC)
				break
			}
			if hit {
				chainHits++
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
		if tr != nil {
			tr.Emit(obs.Event{ICnt: start, PC: enterPC, Kind: obs.EvTBEnter, Hart: uint8(h.ID)})
		}

		// Run the steps that fit the quantum. A step that ends the block
		// names its exit edge, or sets ex when the hart stops, stalls,
		// yields or halts.
		steps := t.steps
		if rem := end - m.icnt; uint64(len(steps)) > rem {
			steps = steps[:rem]
		}
		hooked := t.hooked || m.TraceHook != nil
		ex, exit := tbDone, exitRan
	block:
		for i := range steps {
			s := &steps[i]
			if hooked {
				if s.flags&stepHook != 0 {
					m.pcHooks[s.pc](m, h)
					if m.stop != StopNone {
						h.PC = s.pc
						ex = tbStop
						break block
					}
				}
				if m.TraceHook != nil {
					m.TraceHook(h.ID, s.pc, s.inst)
				}
			}
			in := &s.inst
			m.icnt++
			// Register fields index r masked, which drops the bounds
			// checks. r0 is written like any register and re-zeroed after
			// the step.
			switch in.Op {
			// ---- ALU reg-reg ----
			case isa.OpADD:
				r[in.Rd&regMask] = r[in.Rs1&regMask] + r[in.Rs2&regMask]
			case isa.OpSUB:
				r[in.Rd&regMask] = r[in.Rs1&regMask] - r[in.Rs2&regMask]
			case isa.OpAND:
				r[in.Rd&regMask] = r[in.Rs1&regMask] & r[in.Rs2&regMask]
			case isa.OpOR:
				r[in.Rd&regMask] = r[in.Rs1&regMask] | r[in.Rs2&regMask]
			case isa.OpXOR:
				r[in.Rd&regMask] = r[in.Rs1&regMask] ^ r[in.Rs2&regMask]
			case isa.OpSLL:
				r[in.Rd&regMask] = r[in.Rs1&regMask] << (r[in.Rs2&regMask] & 31)
			case isa.OpSRL:
				r[in.Rd&regMask] = r[in.Rs1&regMask] >> (r[in.Rs2&regMask] & 31)
			case isa.OpSRA:
				r[in.Rd&regMask] = uint32(int32(r[in.Rs1&regMask]) >> (r[in.Rs2&regMask] & 31))
			case isa.OpMUL:
				r[in.Rd&regMask] = r[in.Rs1&regMask] * r[in.Rs2&regMask]
			case isa.OpMULHU:
				r[in.Rd&regMask] = uint32((uint64(r[in.Rs1&regMask]) * uint64(r[in.Rs2&regMask])) >> 32)
			case isa.OpDIV:
				a, b := int32(r[in.Rs1&regMask]), int32(r[in.Rs2&regMask])
				switch {
				case b == 0:
					r[in.Rd&regMask] = 0xFFFFFFFF
				case a == math.MinInt32 && b == -1:
					r[in.Rd&regMask] = uint32(a)
				default:
					r[in.Rd&regMask] = uint32(a / b)
				}
			case isa.OpDIVU:
				if b := r[in.Rs2&regMask]; b == 0 {
					r[in.Rd&regMask] = 0xFFFFFFFF
				} else {
					r[in.Rd&regMask] = r[in.Rs1&regMask] / b
				}
			case isa.OpREM:
				a, b := int32(r[in.Rs1&regMask]), int32(r[in.Rs2&regMask])
				switch {
				case b == 0:
					r[in.Rd&regMask] = uint32(a)
				case a == math.MinInt32 && b == -1:
					r[in.Rd&regMask] = 0
				default:
					r[in.Rd&regMask] = uint32(a % b)
				}
			case isa.OpREMU:
				if b := r[in.Rs2&regMask]; b == 0 {
					r[in.Rd&regMask] = r[in.Rs1&regMask]
				} else {
					r[in.Rd&regMask] = r[in.Rs1&regMask] % b
				}
			case isa.OpSLT:
				r[in.Rd&regMask] = b2u(int32(r[in.Rs1&regMask]) < int32(r[in.Rs2&regMask]))
			case isa.OpSLTU:
				r[in.Rd&regMask] = b2u(r[in.Rs1&regMask] < r[in.Rs2&regMask])

			// ---- ALU reg-imm ----
			case isa.OpADDI:
				r[in.Rd&regMask] = r[in.Rs1&regMask] + uint32(in.Imm)
			case isa.OpANDI:
				r[in.Rd&regMask] = r[in.Rs1&regMask] & uint32(in.Imm)
			case isa.OpORI:
				r[in.Rd&regMask] = r[in.Rs1&regMask] | uint32(in.Imm)
			case isa.OpXORI:
				r[in.Rd&regMask] = r[in.Rs1&regMask] ^ uint32(in.Imm)
			case isa.OpSLLI:
				r[in.Rd&regMask] = r[in.Rs1&regMask] << (uint32(in.Imm) & 31)
			case isa.OpSRLI:
				r[in.Rd&regMask] = r[in.Rs1&regMask] >> (uint32(in.Imm) & 31)
			case isa.OpSRAI:
				r[in.Rd&regMask] = uint32(int32(r[in.Rs1&regMask]) >> (uint32(in.Imm) & 31))
			case isa.OpSLTI:
				r[in.Rd&regMask] = b2u(int32(r[in.Rs1&regMask]) < in.Imm)
			case isa.OpSLTIU:
				r[in.Rd&regMask] = b2u(r[in.Rs1&regMask] < uint32(in.Imm))
			case isa.OpLUI:
				r[in.Rd&regMask] = uint32(in.Imm) << 12
			case isa.OpAUIPC:
				r[in.Rd&regMask] = s.pc + uint32(in.Imm)<<12

			// ---- loads ----
			case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLRW:
				addr := r[in.Rs1&regMask] + uint32(in.Imm)
				size := uint32(s.size)
				if s.flags&stepMem != 0 {
					if s.flags&stepInline != 0 && plain && (s.flags&stepQuiet != 0 || m.inlineClean(addr, size)) {
						settledMem++
					} else if ex = m.dispatch(h, s.pc, addr, size, false, in.Op == isa.OpLRW, s.flags); ex != tbDone {
						break block
					}
				}
				var v uint32
				if uint64(addr-NullGuardSize)+uint64(size) <= ramSpan {
					switch {
					case size == 1:
						v = uint32(ram[addr])
					case size == 2 && big:
						v = uint32(binary.BigEndian.Uint16(ram[addr:]))
					case size == 2:
						v = uint32(binary.LittleEndian.Uint16(ram[addr:]))
					case big:
						v = binary.BigEndian.Uint32(ram[addr:])
					default:
						v = binary.LittleEndian.Uint32(ram[addr:])
					}
				} else {
					var f FaultKind
					if v, f = m.bus.read(addr, size); f != FaultNone {
						m.raiseFault(f, h, s.pc, addr)
						ex = tbStop
						break block
					}
				}
				switch in.Op {
				case isa.OpLB:
					v = uint32(int32(int8(v)))
				case isa.OpLH:
					v = uint32(int32(int16(v)))
				case isa.OpLRW:
					h.resValid, h.resAddr = true, addr
					m.resHeld = true
				}
				r[in.Rd&regMask] = v

			// ---- stores ----
			case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSCW:
				addr := r[in.Rs1&regMask] + uint32(in.Imm)
				if in.Op == isa.OpSCW {
					addr = r[in.Rs1&regMask]
					if !h.resValid || h.resAddr != addr {
						h.resValid = false
						r[in.Rd&regMask] = 1
						break
					}
				}
				size := uint32(s.size)
				if s.flags&stepMem != 0 {
					if s.flags&stepInline != 0 && plain && (s.flags&stepQuiet != 0 || m.inlineClean(addr, size)) {
						settledMem++
					} else if ex = m.dispatch(h, s.pc, addr, size, true, in.Op == isa.OpSCW, s.flags); ex != tbDone {
						break block
					}
				}
				v := r[in.Rs2&regMask]
				if uint64(addr-dataLo)+uint64(size) <= dataSpan {
					m.bus.ram.MarkDirty(addr, size) // inlined: a store within the page marked last marks nothing
					switch {
					case size == 1:
						ram[addr] = byte(v)
					case size == 2 && big:
						binary.BigEndian.PutUint16(ram[addr:], uint16(v))
					case size == 2:
						binary.LittleEndian.PutUint16(ram[addr:], uint16(v))
					case big:
						binary.BigEndian.PutUint32(ram[addr:], v)
					default:
						binary.LittleEndian.PutUint32(ram[addr:], v)
					}
				} else if f := m.write(addr, size, v); f != FaultNone {
					m.raiseFault(f, h, s.pc, addr)
					ex = tbStop
					break block
				}
				m.clearReservations(addr, h)
				if in.Op == isa.OpSCW {
					h.resValid = false
					r[in.Rd&regMask] = 0
				}

			// ---- atomics ----
			case isa.OpAMOADDW, isa.OpAMOSWAPW, isa.OpAMOORW, isa.OpAMOANDW:
				addr := r[in.Rs1&regMask]
				if s.flags&stepMem != 0 {
					if s.flags&stepInline != 0 && plain && (s.flags&stepQuiet != 0 || m.inlineClean(addr, 4)) {
						settledMem++
					} else if ex = m.dispatch(h, s.pc, addr, 4, true, true, s.flags); ex != tbDone {
						break block
					}
				}
				old, f := m.bus.read(addr, 4)
				if f != FaultNone {
					m.raiseFault(f, h, s.pc, addr)
					ex = tbStop
					break block
				}
				var nv uint32
				switch in.Op {
				case isa.OpAMOADDW:
					nv = old + r[in.Rs2&regMask]
				case isa.OpAMOSWAPW:
					nv = r[in.Rs2&regMask]
				case isa.OpAMOORW:
					nv = old | r[in.Rs2&regMask]
				case isa.OpAMOANDW:
					nv = old & r[in.Rs2&regMask]
				}
				if f := m.write(addr, 4, nv); f != FaultNone {
					m.raiseFault(f, h, s.pc, addr)
					ex = tbStop
					break block
				}
				m.clearReservations(addr, h)
				r[in.Rd&regMask] = old

			// ---- branches ----
			case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
				var take bool
				a, b := r[in.Rs1&regMask], r[in.Rs2&regMask]
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
					h.PC, exit = s.pc+uint32(in.Imm)*4, exitTaken
				} else {
					h.PC, exit = s.pc+4, int(t.fall)
				}
				break block

			// ---- jumps ----
			case isa.OpJAL:
				if in.Rd == isa.RegRA {
					h.callPush(s.pc)
				}
				r[in.Rd&regMask] = s.pc + 4
				r[0] = 0
				h.PC, exit = s.pc+uint32(in.Imm)*4, exitTaken
				break block
			case isa.OpJALR:
				target := (r[in.Rs1&regMask] + uint32(in.Imm)) &^ 1
				if in.Rd == isa.RegRA {
					h.callPush(s.pc)
				} else {
					h.callRet(target)
				}
				r[in.Rd&regMask] = s.pc + 4
				r[0] = 0
				h.PC, exit = target, exitIndirect
				break block

			// ---- system ----
			case isa.OpHCALL:
				if fn, ok := m.hypers[in.Imm]; ok {
					h.PC = s.pc // give handlers an accurate PC
					fn(m, h)
					if m.stop != StopNone {
						h.PC = s.pc + 4
						ex = tbStop
						break block
					}
				}
			case isa.OpECALL:
				m.raiseFault(FaultIllegalInst, h, s.pc, s.pc)
				ex = tbStop
				break block
			case isa.OpEBREAK:
				m.raiseFault(FaultBreakpoint, h, s.pc, s.pc)
				ex = tbStop
				break block
			case isa.OpHALT:
				h.Halted = true
				h.PC = s.pc
				ex = tbHalt
				break block
			case isa.OpYIELD:
				h.PC = s.pc + 4
				ex = tbYield
				break block
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
				r[in.Rd&regMask] = v
			case isa.OpCSRW:
				switch in.Imm {
				case isa.CSRScratch0:
					h.Scratch[0] = r[in.Rs1&regMask]
				case isa.CSRScratch1:
					h.Scratch[1] = r[in.Rs1&regMask]
				}

			case isa.OpSANCK:
				if s.flags&stepSanck != 0 {
					addr := r[in.Rs1&regMask] + uint32(in.Imm)
					size, write, atomic := isa.SanckDecode(in.Rd)
					if s.flags&stepInline != 0 && plain && (s.flags&stepQuiet != 0 || m.inlineClean(addr, size)) {
						settledSanck++
					} else if ex = m.dispatch(h, s.pc, addr, size, write, atomic, s.flags); ex != tbDone {
						break block
					}
				}

			default:
				m.raiseFault(FaultIllegalInst, h, s.pc, s.pc)
				ex = tbStop
				break block
			}
			r[0] = 0
		}
		if exit == exitRan && ex == tbDone {
			if len(steps) < len(t.steps) {
				// Cut by the quantum: resume mid-block, chain nothing.
				h.PC, exit = t.steps[len(steps)].pc, exitIndirect
			} else {
				h.PC, exit = t.steps[len(t.steps)-1].pc+4, exitFall
			}
		}
		if pr != nil {
			pr.AddInsts(enterPC, m.icnt-start)
		}
		if tr != nil {
			tr.Emit(obs.Event{ICnt: m.icnt, PC: enterPC, Arg: uint32(ex), Kind: obs.EvTBExit, Hart: uint8(h.ID)})
		}
		if ex != tbDone {
			break
		}

		// Follow the exit's link only for a transfer that will actually
		// execute next (same guard as the loop head). A link whose stamp
		// matches chainGen is followed on the spot; a missing or severed
		// one is resolved through the dispatcher and installed.
		cur := t
		t = nil
		if exit <= exitFall && cur.succ[exit] != 0 && !m.cfg.NoChain && m.stop == StopNone && m.icnt < end {
			if cur.cgen[exit] == m.chainGen {
				t = cur.link[exit]
				chainHits++
			} else {
				var f FaultKind
				if t, f = m.tbFor(h.PC); f != FaultNone {
					m.raiseFault(f, h, h.PC, h.PC)
					break
				}
				cur.link[exit], cur.cgen[exit] = t, m.chainGen
			}
		}
	}
	m.ctr.chainHits.Add(chainHits)
	if settledMem|settledSanck != 0 {
		m.ctr.inlineFast.Add(settledMem + settledSanck)
		m.ctr.memProbes.Add(settledMem)
		m.ctr.sanckTraps.Add(settledSanck)
	}
}

// raiseFault stops the machine on a guest fault at pc, leaving the hart's PC
// on the faulting instruction whichever block boundary it ran from.
func (m *Machine) raiseFault(kind FaultKind, h *Hart, pc, addr uint32) {
	h.PC = pc
	m.fault = &Fault{Kind: kind, Hart: h.ID, PC: pc, Addr: addr}
	m.stop = StopFault
}

// dispatch sends one access or SANCK site's event to its probe (the Mem
// probe, or the Sanck probe for a SANCK step) and translates the outcome.
// It returns tbDone when execution should proceed. It performs the full
// dispatch accounting, so an armed site whose in-template check settles the
// access still emits its trace and profile events; only the delegate call
// itself is skipped. A stall suspends the hart before the step: an access
// un-retires, while a SANCK re-runs when the hart resumes.
func (m *Machine) dispatch(h *Hart, pc, addr, size uint32, write, atomic bool, fl stepFlags) tbExit {
	sanck := fl&stepSanck != 0
	kind := obs.EvMemProbe
	if sanck {
		m.ctr.sanckTraps.Inc()
		kind = obs.EvSanck
	} else {
		m.ctr.memProbes.Inc()
	}
	if m.trace != nil {
		m.trace.Emit(obs.Event{ICnt: m.icnt, PC: pc, Addr: addr,
			Arg: obs.PackAccess(size, write, atomic), Kind: kind, Hart: uint8(h.ID)})
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
	if sanck {
		m.probes.Sanck(ev)
	} else {
		m.probes.Mem(ev)
	}
	if ev.StallInsts > 0 {
		h.PC = pc
		h.resumeAt = m.icnt + ev.StallInsts
		if !sanck {
			// Undo the retired-instruction count for the access we did not run.
			m.icnt--
		}
		return tbStall
	}
	if m.stop != StopNone {
		h.PC = pc
		if sanck {
			h.PC = pc + 4
		}
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
