// Package rehost lifts a foreign, metadata-free firmware image into a
// runnable EMBSAN-D personality. It runs an interprocedural interval
// analysis over the CFGs recovered by internal/static and infers, from the
// binary alone:
//
//   - the reset vector and the boot stack (the entry block's constant
//     store to SP);
//   - the MMIO register map: every device access whose address resolves to
//     a single location becomes a register, classified by access width,
//     polarity and role; accesses through loop-carried pointers become
//     data windows;
//   - status-poll loops (a read whose value gates the loop back-edge),
//     together with the value that releases each poll — so a synthesized
//     device can feed boot progress instead of hanging the firmware;
//   - allocator entry candidates from the static ranking, for the Prober
//     to confirm behaviourally.
//
// The result is a Profile; Device bridges it onto the platform devices so
// the image boots under EMBSAN-D, and RenderStub emits the equivalent
// device source for inspection.
package rehost

import (
	"embsan/internal/emu"
	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/static"
)

const (
	maxSpan    = 0x1000 // widest tracked interval; anything wider is unknown
	maxPasses  = 8      // dataflow passes per function (bounded widening)
	maxAllocs  = 4      // ranked allocator candidates kept in the profile
	pageMask   = 0xFFF
	windowPage = 0x1000
)

// ---- interval domain ----

// A val abstracts one register's contents as an unsigned interval. The
// analysis only needs to separate "one exact address" (a register access)
// from "a small range of addresses" (a window walked by a loop) from
// "anything" — so intervals wider than maxSpan collapse to unknown.
type val struct {
	known  bool
	lo, hi uint32
}

func exact(v uint32) val { return val{known: true, lo: v, hi: v} }

func (v val) isExact() bool { return v.known && v.lo == v.hi }

// norm builds a val from 64-bit bounds, wrapping a fully out-of-range pair
// back into 32 bits and dropping straddles and wide spans.
func norm(lo, hi uint64) val {
	const wrap = 1 << 32
	if hi < lo || hi-lo > maxSpan {
		return val{}
	}
	if lo >= wrap {
		lo -= wrap
		hi -= wrap
	}
	if hi >= wrap {
		return val{}
	}
	return val{known: true, lo: uint32(lo), hi: uint32(hi)}
}

func merge(a, b val) val {
	if !a.known || !b.known {
		return val{}
	}
	lo, hi := a.lo, a.hi
	if b.lo < lo {
		lo = b.lo
	}
	if b.hi > hi {
		hi = b.hi
	}
	if hi-lo > maxSpan {
		return val{}
	}
	return val{known: true, lo: lo, hi: hi}
}

func addImm(v val, imm int32) val {
	if !v.known {
		return val{}
	}
	lo := int64(v.lo) + int64(imm)
	hi := int64(v.hi) + int64(imm)
	if lo < 0 {
		lo += 1 << 32
		hi += 1 << 32
	}
	if lo < 0 {
		return val{}
	}
	return norm(uint64(lo), uint64(hi))
}

func addVals(a, b val) val {
	if !a.known || !b.known {
		return val{}
	}
	if a.isExact() && b.isExact() {
		return exact(a.lo + b.lo) // wrapping: self-relative table idiom
	}
	return norm(uint64(a.lo)+uint64(b.lo), uint64(a.hi)+uint64(b.hi))
}

func subVals(a, b val) val {
	if !a.known || !b.known {
		return val{}
	}
	if a.isExact() && b.isExact() {
		return exact(a.lo - b.lo)
	}
	lo := int64(a.lo) - int64(b.hi)
	hi := int64(a.hi) - int64(b.lo)
	if lo < 0 {
		return val{}
	}
	return norm(uint64(lo), uint64(hi))
}

func aluExact(op isa.Op, x, y uint32) (uint32, bool) {
	switch op {
	case isa.OpAND:
		return x & y, true
	case isa.OpOR:
		return x | y, true
	case isa.OpXOR:
		return x ^ y, true
	case isa.OpSLL:
		return x << (y & 31), true
	case isa.OpSRL:
		return x >> (y & 31), true
	case isa.OpSRA:
		return uint32(int32(x) >> (y & 31)), true
	case isa.OpMUL:
		return x * y, true
	case isa.OpSLT:
		if int32(x) < int32(y) {
			return 1, true
		}
		return 0, true
	case isa.OpSLTU:
		if x < y {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

const (
	maxFrame = 4096 // deepest tracked stack-slot offset
	maxSlots = 64   // most tracked slots per state
)

// state is the abstract machine state: one interval per register, plus the
// SP displacement from function entry and the word slots spilled through
// it. Slot tracking is what lets a pointer survive the save/reload pair
// that real code wraps around calls.
type state struct {
	r     [16]val
	spOk  bool  // SP is a known displacement from the function-entry SP
	spOff int32 // that displacement
	slots map[int32]val
}

func entryState() state { return state{spOk: true} }

func (s *state) get(r uint8) val {
	if r == isa.RegZero {
		return exact(0)
	}
	return s.r[r]
}

func (s *state) set(r uint8, v val) {
	if r != isa.RegZero {
		s.r[r] = v
	}
}

func (s *state) slot(off int32) val {
	if v, ok := s.slots[off]; ok {
		return v
	}
	return val{}
}

func (s *state) setSlot(off int32, v val) {
	if off < -maxFrame || off > maxFrame {
		return
	}
	if s.slots == nil {
		s.slots = map[int32]val{}
	}
	if len(s.slots) >= maxSlots {
		if _, ok := s.slots[off]; !ok {
			return
		}
	}
	s.slots[off] = v
}

func cloneState(s state) state {
	if s.slots != nil {
		m := make(map[int32]val, len(s.slots))
		for k, v := range s.slots {
			m[k] = v
		}
		s.slots = m
	}
	return s
}

func mergeState(a, b state) state {
	var out state
	for i := range out.r {
		out.r[i] = merge(a.r[i], b.r[i])
	}
	if a.spOk && b.spOk && a.spOff == b.spOff {
		out.spOk, out.spOff = true, a.spOff
		for off, av := range a.slots {
			bv, ok := b.slots[off]
			if !ok {
				continue
			}
			if m := merge(av, bv); m.known {
				if out.slots == nil {
					out.slots = map[int32]val{}
				}
				out.slots[off] = m
			}
		}
	}
	return out
}

func stateEq(a, b state) bool {
	if a.r != b.r || a.spOk != b.spOk || a.spOff != b.spOff {
		return false
	}
	if len(a.slots) != len(b.slots) {
		return false
	}
	for k, v := range a.slots {
		if bv, ok := b.slots[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// step is the abstract transfer function for one instruction. Calls keep
// callee state except the link and return-value registers: the lifter has
// no ABI metadata, and assuming preservation recovers far more of the
// pointer flow than clobbering everything (documented heuristic).
func step(s *state, in isa.Inst, pc uint32) {
	// Track the SP displacement: balanced prologue/epilogue arithmetic
	// keeps slot addressing valid; anything else abandons the frame.
	if in.Rd == isa.RegSP && writesRd(in.Op) {
		if in.Op == isa.OpADDI && in.Rs1 == isa.RegSP && s.spOk {
			s.spOff += in.Imm
		} else {
			s.spOk = false
			s.slots = nil
		}
	}
	switch in.Op {
	case isa.OpSW:
		if in.Rs1 == isa.RegSP && s.spOk {
			s.setSlot(s.spOff+in.Imm, s.get(in.Rs2))
		}
		return
	case isa.OpSB, isa.OpSH:
		if in.Rs1 == isa.RegSP && s.spOk {
			delete(s.slots, s.spOff+in.Imm) // partial overwrite: slot dies
		}
		return
	case isa.OpLUI:
		s.set(in.Rd, exact(uint32(in.Imm)<<12))
	case isa.OpAUIPC:
		s.set(in.Rd, exact(pc+uint32(in.Imm)<<12))
	case isa.OpADDI:
		s.set(in.Rd, addImm(s.get(in.Rs1), in.Imm))
	case isa.OpANDI:
		v := s.get(in.Rs1)
		switch {
		case v.isExact():
			s.set(in.Rd, exact(v.lo&uint32(in.Imm)))
		case in.Imm > 0 && in.Imm <= maxSpan:
			s.set(in.Rd, val{known: true, lo: 0, hi: uint32(in.Imm)})
		default:
			s.set(in.Rd, val{})
		}
	case isa.OpORI, isa.OpXORI, isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpSLTI, isa.OpSLTIU:
		v := s.get(in.Rs1)
		if !v.isExact() {
			s.set(in.Rd, val{})
			break
		}
		x, imm := v.lo, uint32(in.Imm)
		switch in.Op {
		case isa.OpORI:
			s.set(in.Rd, exact(x|imm))
		case isa.OpXORI:
			s.set(in.Rd, exact(x^imm))
		case isa.OpSLLI:
			s.set(in.Rd, exact(x<<(imm&31)))
		case isa.OpSRLI:
			s.set(in.Rd, exact(x>>(imm&31)))
		case isa.OpSRAI:
			s.set(in.Rd, exact(uint32(int32(x)>>(imm&31))))
		case isa.OpSLTI:
			s.set(in.Rd, boolVal(int32(x) < in.Imm))
		case isa.OpSLTIU:
			s.set(in.Rd, boolVal(x < imm))
		}
	case isa.OpADD:
		s.set(in.Rd, addVals(s.get(in.Rs1), s.get(in.Rs2)))
	case isa.OpSUB:
		s.set(in.Rd, subVals(s.get(in.Rs1), s.get(in.Rs2)))
	case isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRL, isa.OpSRA,
		isa.OpMUL, isa.OpSLT, isa.OpSLTU:
		a, b := s.get(in.Rs1), s.get(in.Rs2)
		if a.isExact() && b.isExact() {
			if r, ok := aluExact(in.Op, a.lo, b.lo); ok {
				s.set(in.Rd, exact(r))
				break
			}
		}
		s.set(in.Rd, val{})
	case isa.OpLW:
		if in.Rs1 == isa.RegSP && s.spOk {
			s.set(in.Rd, s.slot(s.spOff+in.Imm))
		} else {
			s.set(in.Rd, val{})
		}
	case isa.OpMULHU, isa.OpDIV, isa.OpDIVU, isa.OpREM, isa.OpREMU,
		isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLRW,
		isa.OpAMOADDW, isa.OpAMOSWAPW, isa.OpAMOORW, isa.OpAMOANDW,
		isa.OpSCW, isa.OpCSRR:
		s.set(in.Rd, val{})
	case isa.OpJAL, isa.OpJALR:
		s.set(in.Rd, exact(pc+4))
		if in.Rd == isa.RegRA {
			s.set(isa.RegA0, val{}) // call: return value is clobbered
		}
	}
}

func boolVal(b bool) val {
	if b {
		return exact(1)
	}
	return exact(0)
}

// ---- per-function dataflow ----

// flowFunc computes block in-states for one function by forward dataflow
// with hull merging, bounded at maxPasses (loop-carried pointers widen a
// little each pass, which is exactly what separates them from exact
// register addresses).
func flowFunc(an *static.Analysis, f *static.Func) map[uint32]state {
	in := map[uint32]state{}
	if len(f.Blocks) == 0 {
		return in
	}
	in[f.Blocks[0].Start] = entryState()
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, b := range f.Blocks {
			cur, have := in[b.Start]
			if !have {
				continue
			}
			s := cloneState(cur)
			for pc := b.Start; pc < b.End; pc += 4 {
				if inst, ok := an.InstAt(pc); ok {
					step(&s, inst, pc)
				}
			}
			for _, succ := range b.Succs {
				if succ < f.Entry || succ >= f.End {
					continue
				}
				prev, have := in[succ]
				if !have {
					in[succ] = cloneState(s)
					changed = true
				} else if m := mergeState(prev, s); !stateEq(m, prev) {
					in[succ] = m
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return in
}

// access is one MMIO load/store with its resolved address interval.
type access struct {
	pc    uint32
	fn    uint32 // containing function entry
	addr  val
	size  uint32
	read  bool
	write bool

	// Poll shape, for reads whose value gates the block's back-edge.
	poll  bool
	exit  uint32
	stall uint32
	// looped: the poll itself sits inside an enclosing loop — it is
	// served repeatedly (an input wait), not once (a boot gate).
	looped bool
}

// collect replays each block with its computed in-state and records every
// access that lands in MMIO space.
func collect(an *static.Analysis, f *static.Func, flow map[uint32]state) []access {
	var out []access
	for _, b := range f.Blocks {
		cur, ok := flow[b.Start]
		if !ok {
			continue // unreached block
		}
		s := cloneState(cur)
		for pc := b.Start; pc < b.End; pc += 4 {
			in, ok := an.InstAt(pc)
			if !ok {
				continue
			}
			if sz := isa.AccessSize(in.Op); sz != 0 {
				imm := in.Imm
				if isa.ClassOf(in.Op) == isa.ClassAtomic {
					imm = 0
				}
				addr := addImm(s.get(in.Rs1), imm)
				if addr.known && addr.lo >= emu.MMIOBase {
					ac := access{
						pc: pc, fn: f.Entry, addr: addr, size: sz,
						read:  !isa.IsWrite(in.Op) || isa.ClassOf(in.Op) == isa.ClassAtomic,
						write: isa.IsWrite(in.Op),
					}
					if ac.read && addr.isExact() {
						var backTo uint32
						ac.poll, ac.exit, ac.stall, backTo = pollShape(an, f, b, pc, in.Rd)
						if ac.poll {
							ac.looped = enclosed(f, b, backTo)
						}
					}
					out = append(out, ac)
				}
			}
			step(&s, in, pc)
		}
	}
	return out
}

// enclosed reports whether some later block jumps back to the poll head —
// the poll is re-armed after the work that follows it, i.e. it waits for
// input repeatedly rather than gating the boot once.
func enclosed(f *static.Func, poll static.Block, head uint32) bool {
	for _, b := range f.Blocks {
		if b.Start < poll.End {
			continue
		}
		for _, succ := range b.Succs {
			if succ == head {
				return true
			}
		}
	}
	return false
}

// pollShape detects the status-poll idiom: the block ends in a conditional
// branch back to (or before) the read, and the branch compares the loaded
// value — directly or through one AND mask — against zero. It returns the
// value that releases the loop, the value that keeps it spinning, and the
// loop head the back-edge targets.
func pollShape(an *static.Analysis, f *static.Func, b static.Block, readPC uint32, rd uint8) (bool, uint32, uint32, uint32) {
	if rd == isa.RegZero {
		return false, 0, 0, 0
	}
	carriers := map[uint8]uint32{rd: 0} // reg -> AND mask (0 = unmasked)
	for pc := readPC + 4; pc < b.End; pc += 4 {
		in, ok := an.InstAt(pc)
		if !ok {
			return false, 0, 0, 0
		}
		switch in.Op {
		case isa.OpBEQ, isa.OpBNE:
			mask, hit := branchCarrier(carriers, in)
			if !hit {
				return false, 0, 0, 0
			}
			t := pc + uint32(in.Imm)*4
			if t > readPC || t < f.Entry {
				return false, 0, 0, 0 // not a back-edge over the read
			}
			exitv := mask
			if exitv == 0 {
				exitv = 1
			}
			if in.Op == isa.OpBEQ {
				return true, exitv, 0, t // spins while zero
			}
			return true, 0, exitv, t // spins while nonzero
		case isa.OpANDI:
			if m, ok := carriers[in.Rs1]; ok && m == 0 && in.Imm > 0 && in.Rd != isa.RegZero {
				carriers[in.Rd] = uint32(in.Imm)
				continue
			}
			delete(carriers, in.Rd)
		case isa.OpADD:
			if m, ok := carriers[in.Rs1]; ok && in.Rs2 == isa.RegZero && in.Rd != isa.RegZero {
				carriers[in.Rd] = m
				continue
			}
			if m, ok := carriers[in.Rs2]; ok && in.Rs1 == isa.RegZero && in.Rd != isa.RegZero {
				carriers[in.Rd] = m
				continue
			}
			delete(carriers, in.Rd)
		default:
			if isa.Terminates(in.Op) {
				return false, 0, 0, 0
			}
			if writesRd(in.Op) {
				delete(carriers, in.Rd)
			}
		}
		if len(carriers) == 0 {
			return false, 0, 0, 0
		}
	}
	return false, 0, 0, 0
}

// writesRd reports whether op defines its Rd field (stores and branches
// carry source registers there instead).
func writesRd(op isa.Op) bool {
	switch isa.ClassOf(op) {
	case isa.ClassStore, isa.ClassBranch, isa.ClassSanck:
		return false
	}
	switch op {
	case isa.OpHALT, isa.OpFENCE, isa.OpYIELD, isa.OpHCALL,
		isa.OpECALL, isa.OpEBREAK, isa.OpCSRW:
		return false
	}
	return true
}

// branchCarrier reports whether the branch compares a carrier register
// against the zero register, and with which mask.
func branchCarrier(carriers map[uint8]uint32, in isa.Inst) (uint32, bool) {
	if m, ok := carriers[in.Rs1]; ok && in.Rs2 == isa.RegZero {
		return m, true
	}
	if m, ok := carriers[in.Rs2]; ok && in.Rs1 == isa.RegZero {
		return m, true
	}
	return 0, false
}

// ---- lifting ----

// Lift runs the full rehosting analysis over one image. It needs no
// symbols and no link metadata: the stripped binary is enough.
func Lift(img *kasm.Image) (*Profile, error) {
	if err := checkEntry(img.Entry); err != nil {
		return nil, err
	}
	an, err := static.Analyze(img)
	if err != nil {
		return nil, err
	}
	p := &Profile{
		Name:           img.Name,
		Arch:           img.Arch,
		Entry:          img.Entry,
		ImageBase:      img.Base,
		ImageEnd:       img.BSSAddr + img.BSSSize,
		FuncsRecovered: len(an.Funcs),
	}

	var accs []access
	for _, f := range an.Funcs {
		if !an.FuncReachable(f.Entry) {
			continue
		}
		p.FuncsReachable++
		accs = append(accs, collect(an, f, flowFunc(an, f))...)
	}

	p.Windows, p.Registers = classify(accs)
	p.StackTop = recoverStack(an, img.Entry)

	for _, c := range an.RankAllocCandidates() {
		if len(p.Allocs) == maxAllocs || c.Score <= 0 {
			break
		}
		p.Allocs = append(p.Allocs, AllocCandidate{
			Entry: c.Entry, Name: c.Name, Score: c.Score, Shaped: c.Shaped,
		})
	}
	return p, nil
}

// classify turns the raw access list into windows (loop-carried pointers)
// and registers (exact addresses), assigning each register a role.
func classify(accs []access) ([]Window, []Register) {
	// Windows first: every non-exact access claims the pages its interval
	// touches; overlapping claims coalesce.
	type rawWin struct {
		base        uint32
		end         uint64 // exclusive; may be 1<<32 at the top of the space
		read, write bool
		pcs         []uint32
		fns         map[uint32]bool
	}
	var raws []rawWin
	for _, ac := range accs {
		if ac.addr.isExact() {
			continue
		}
		base := ac.addr.lo &^ uint32(pageMask)
		end64 := ((uint64(ac.addr.hi) + uint64(ac.size) - 1) | pageMask) + 1
		if end64 > 1<<32 {
			end64 = 1 << 32
		}
		if end64-uint64(base) >= 1<<32 {
			continue // degenerate: the window would cover everything
		}
		raws = append(raws, rawWin{
			base: base, end: end64, read: ac.read, write: ac.write,
			pcs: []uint32{ac.pc}, fns: map[uint32]bool{ac.fn: true},
		})
	}
	for i := 0; i < len(raws); i++ {
		for j := i + 1; j < len(raws); j++ {
			if uint64(raws[i].base) < raws[j].end && uint64(raws[j].base) < raws[i].end {
				if raws[j].base < raws[i].base {
					raws[i].base = raws[j].base
				}
				if raws[j].end > raws[i].end {
					raws[i].end = raws[j].end
				}
				raws[i].read = raws[i].read || raws[j].read
				raws[i].write = raws[i].write || raws[j].write
				raws[i].pcs = append(raws[i].pcs, raws[j].pcs...)
				for fn := range raws[j].fns {
					raws[i].fns[fn] = true
				}
				raws = append(raws[:j], raws[j+1:]...)
				j = i // rescan: the grown window may now overlap earlier ones
			}
		}
	}

	inWindow := func(addr uint32) int {
		for i, w := range raws {
			if addr >= w.base && uint64(addr) < w.end {
				return i
			}
		}
		return -1
	}

	// inputFns: functions on the input path — they read a window, or they
	// host a poll that is re-armed by an enclosing loop (frame service
	// without a data window, e.g. a register-only mailbox). Exact accesses
	// landing inside a window page fold into the window.
	inputFns := map[uint32]bool{}
	for _, ac := range accs {
		if ac.poll && ac.looped {
			inputFns[ac.fn] = true
		}
	}
	type rawReg struct {
		read, write bool
		sizes       map[uint32]bool
		fns         map[uint32]bool
		pcs         []uint32
		poll        bool
		exit, stall uint32
	}
	regs := map[uint32]*rawReg{}
	for _, ac := range accs {
		if !ac.addr.isExact() {
			if ac.read {
				inputFns[ac.fn] = true
			}
			continue
		}
		if wi := inWindow(ac.addr.lo); wi >= 0 {
			raws[wi].read = raws[wi].read || ac.read
			raws[wi].write = raws[wi].write || ac.write
			raws[wi].pcs = append(raws[wi].pcs, ac.pc)
			raws[wi].fns[ac.fn] = true
			if ac.read {
				inputFns[ac.fn] = true
			}
			continue
		}
		r := regs[ac.addr.lo]
		if r == nil {
			r = &rawReg{sizes: map[uint32]bool{}, fns: map[uint32]bool{}}
			regs[ac.addr.lo] = r
		}
		r.read = r.read || ac.read
		r.write = r.write || ac.write
		r.sizes[ac.size] = true
		r.fns[ac.fn] = true
		r.pcs = append(r.pcs, ac.pc)
		if ac.poll && !r.poll {
			r.poll, r.exit, r.stall = true, ac.exit, ac.stall
		}
	}

	var wins []Window
	for _, w := range raws {
		wins = append(wins, Window{
			Base: w.base, Size: uint32(w.end - uint64(w.base)),
			Read: w.read, Write: w.write, PCs: sortU32(w.pcs),
		})
	}
	sortWindows(wins)

	var out []Register
	for addr, r := range regs {
		onInput := false
		for fn := range r.fns {
			if inputFns[fn] {
				onInput = true
				break
			}
		}
		reg := Register{
			Addr: addr, Read: r.read, Write: r.write,
			Sizes: sortU32(sizesOf(r.sizes)), PCs: sortU32(r.pcs),
			Poll: r.poll, Exit: r.exit, Stall: r.stall,
		}
		switch {
		case r.poll && onInput:
			reg.Role = RoleRxStatus
		case r.poll:
			reg.Role = RoleBootStatus
		case r.read && onInput:
			reg.Role = RoleRxLen
		case !r.read && allByte(reg.Sizes):
			reg.Role = RoleConsole
		case r.write && onInput:
			reg.Role = RoleDone
		case r.write:
			reg.Role = RoleControl
		default:
			reg.Role = RoleScratch
		}
		out = append(out, reg)
	}
	sortRegisters(out)
	return wins, out
}

func allByte(sizes []uint32) bool {
	for _, s := range sizes {
		if s != 1 {
			return false
		}
	}
	return len(sizes) > 0
}

func sizesOf(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	return out
}

func sortWindows(w []Window) {
	for i := 1; i < len(w); i++ {
		for j := i; j > 0 && w[j].Base < w[j-1].Base; j-- {
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
}

func sortRegisters(r []Register) {
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && r[j].Addr < r[j-1].Addr; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// recoverStack reads the stack pointer out of the entry function's first
// block: the boot stack is the first thing real reset code materialises.
func recoverStack(an *static.Analysis, entry uint32) uint32 {
	f, ok := an.FuncAt(entry)
	if !ok {
		f, ok = an.FuncContaining(entry)
	}
	if !ok || len(f.Blocks) == 0 {
		return 0
	}
	var s state
	b := f.Blocks[0]
	for pc := b.Start; pc < b.End; pc += 4 {
		if in, ok := an.InstAt(pc); ok {
			step(&s, in, pc)
		}
	}
	if sp := s.get(isa.RegSP); sp.isExact() && sp.lo != 0 && sp.lo < emu.MMIOBase {
		return sp.lo
	}
	return 0
}
