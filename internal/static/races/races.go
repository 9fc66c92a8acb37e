// Package races is the interprocedural lockset and shared-state analysis
// over the recovered binary (PR 2's internal/static CFGs). It identifies
// synchronization primitives from instruction patterns — the EVA32 spinlock
// idiom is an AMOSWAPW exchanging a nonzero token with a branch on the old
// value; the same pattern against a constant global covers irq-mask and
// scheduler-off words — runs a forward must-lockset fixpoint per basic
// block (meet = intersection, call-edge propagation with bounded context,
// iteration caps as the widening surrogate on loops), and classifies every
// shared-memory access as always-protected, hart-local or unprotected/
// mixed. Candidate race pairs (write-write and read-write on overlapping
// intervals with disjoint locksets, reachable from different harts) are
// emitted symbol-addressed.
//
// Three consumers sit on top of it: the KCSAN watchpoint priority map
// (san.SiteProofs.RaceWeights — weight 0 at proven-safe sites, boosted
// weights at racy ones), the concurrency-elision record in link metadata
// (kasm.Metadata.RaceElisions, skipped outright by the sanitizer runtime
// through san.SiteProofs.RaceSafe), and the `embsan lint -races` audit.
//
// Known unsoundness boundaries (documented in docs/STATIC.md): unresolved
// pointer accesses are never paired and never elided, but they are assumed
// not to alias lock-protected objects; frame slots are assumed
// single-assignment per offset within a function; callees are assumed not
// to write the caller's frame except through passed pointers; indirect
// calls conservatively clobber the lockset.
package races

import (
	"fmt"
	"sort"

	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/static"
)

// Class is the shared-state classification of one object.
type Class uint8

const (
	ClassUnknown   Class = iota // no resolved accesses
	ClassProtected              // common nonempty lockset, or marked-atomic-only
	ClassHartLocal              // every access provably on one hart
	ClassRacy                   // unprotected or mixed
)

func (c Class) String() string {
	switch c {
	case ClassProtected:
		return "protected"
	case ClassHartLocal:
		return "hart-local"
	case ClassRacy:
		return "racy"
	}
	return "unknown"
}

// DefaultBoost is the arming weight guided deployments give accesses of
// unprotected/mixed objects (proven-safe sites get weight 0, everything
// else keeps the default weight 1).
const DefaultBoost = 8

// Access is one resolved shared-memory access site.
type Access struct {
	PC     uint32
	Func   string
	Object int    // index into Result.Objects
	Off    uint32 // offset within the object; OffUnknown = whole object
	Size   uint32
	Write  bool
	Atomic bool
	Locks  []uint32 // must-held lock word addresses, sorted
	Harts  []int    // hart ids this site can execute on (-1 = unknown)
}

// OffUnknown marks an access whose base object is known but whose offset
// within it is dynamic; it conservatively spans the whole object.
const OffUnknown = ^uint32(0)

// Object is one shared-memory object: a data symbol or a probed heap range.
type Object struct {
	Name     string
	Addr     uint32
	Size     uint32
	Class    Class
	Accesses []int // indices into Result.Accesses
	Lockset  []uint32
}

// Pair is one candidate race: two accesses to overlapping intervals of the
// same object with disjoint locksets, at least one write, not both marked
// atomic, executable on different harts.
type Pair struct {
	Object int
	A, B   int // indices into Result.Accesses, A.PC < B.PC
}

// Options tunes the analysis.
type Options struct {
	// Taint lists probed heap regions treated as shared objects.
	Taint []kasm.AddrRange
	// Rounds bounds the interprocedural context propagation (default 4).
	Rounds int
	// MaxBlockIters caps the per-function block fixpoint; on overflow
	// (irreducible or adversarial CFGs) the function degrades to the empty
	// lockset — the widening surrogate guaranteeing termination.
	MaxBlockIters int
}

// Result is the full lockset and shared-state analysis of one image.
type Result struct {
	An       *static.Analysis
	Accesses []Access
	Objects  []*Object
	Pairs    []Pair

	// Unresolved counts reachable accesses whose target could not be
	// resolved to an object; UnresolvedHarts is the union of hart ids that
	// can execute one (the hart-local elision guard).
	Unresolved      int
	UnresolvedHarts []int

	// UnknownSpawn is set when a task-spawn hypercall's entry PC did not
	// resolve: hart-locality can then never be proven.
	UnknownSpawn bool

	// Widened lists functions whose block fixpoint hit the iteration cap
	// and degraded to the empty lockset.
	Widened []string
}

// ---- abstract values (linear per-function value tracking) ----

type vkind uint8

const (
	vUnk vkind = iota
	vConst
	vArg // incoming a0 + offset
	vSP  // stack pointer + offset
)

type aval struct {
	kind vkind
	off  int32 // vConst: absolute address; vArg/vSP: offset from base
	dyn  bool  // a dynamic amount was added; base preserved, offset not
}

func (v aval) add(c int32) aval {
	if v.kind == vUnk {
		return v
	}
	v.off += c
	return v
}

func avalEq(a, b aval) bool { return a == b }

// vstate is the per-point tracker state: registers plus frame slots.
type vstate struct {
	regs  [isa.NumRegs]aval
	slots map[int32]aval
}

func (s *vstate) clone() *vstate {
	n := &vstate{regs: s.regs}
	if s.slots != nil {
		n.slots = make(map[int32]aval, len(s.slots))
		for k, v := range s.slots {
			n.slots[k] = v
		}
	}
	return n
}

// meet intersects two states: disagreeing registers and slots go unknown.
// Reports whether the receiver changed.
func (s *vstate) meet(o *vstate) bool {
	changed := false
	for i := range s.regs {
		if s.regs[i].kind != vUnk && !avalEq(s.regs[i], o.regs[i]) {
			s.regs[i] = aval{}
			changed = true
		}
	}
	for k, v := range s.slots {
		ov, ok := o.slots[k]
		if !ok || !avalEq(v, ov) {
			delete(s.slots, k)
			changed = true
		}
	}
	return changed
}

// ---- lockset states ----

// Lock identities are uint64 keys: a resolved lock word address, or argLock
// for "the lock word the function's first argument points at".
const argLock = uint64(1) << 33

type lockset map[uint64]bool

func (l lockset) clone() lockset {
	n := make(lockset, len(l))
	for k := range l {
		n[k] = true
	}
	return n
}

func locksetEq(a, b lockset) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// lstate is the relative must-lockset at a program point: locks certainly
// acquired since function entry (plus) and entry locks possibly released
// (minus). clobber marks an unknown release — every entry lock is lost.
type lstate struct {
	plus    lockset
	minus   lockset
	clobber bool
}

func newLstate() *lstate { return &lstate{plus: lockset{}, minus: lockset{}} }

func (s *lstate) clone() *lstate {
	return &lstate{plus: s.plus.clone(), minus: s.minus.clone(), clobber: s.clobber}
}

// meet is the must-analysis join: plus = intersection (held on all paths),
// minus = union (released on any path). Reports change.
func (s *lstate) meet(o *lstate) bool {
	changed := false
	for k := range s.plus {
		if !o.plus[k] {
			delete(s.plus, k)
			changed = true
		}
	}
	for k := range o.minus {
		if !s.minus[k] {
			s.minus[k] = true
			changed = true
		}
	}
	if o.clobber && !s.clobber {
		s.clobber = true
		changed = true
	}
	return changed
}

func (s *lstate) acquire(id uint64) {
	if id == 0 {
		return // unresolved lock: must-analysis cannot add it
	}
	s.plus[id] = true
	delete(s.minus, id)
}

func (s *lstate) release(id uint64) {
	if id == 0 {
		// Unknown release: conservatively drop everything.
		s.plus = lockset{}
		s.clobber = true
		return
	}
	delete(s.plus, id)
	s.minus[id] = true
}

// ---- per-instruction facts ----

type factKind uint8

const (
	factNone factKind = iota
	factAcquire
	factRelease
	factCall     // direct call; lock = callee entry, arg = resolved a0
	factIndirect // indirect call: clobbers the lockset
	factAccess
	factSpawn
)

type fact struct {
	kind   factKind
	lock   uint64 // acquire/release lock id (0 = unresolved), or callee entry
	arg    aval   // resolved a0 at a call/spawn site
	spawn  aval   // resolved a1 (entry pc) at a spawn site
	target aval   // access target
	size   uint32
	write  bool
	atomic bool
}

// ---- per-function analysis state ----

type funcInfo struct {
	f     *static.Func
	insts []instRef // instruction pcs in address order
	facts map[uint32]fact

	// Interprocedural context (bounded rounds).
	entryLS  lockset // absolute lockset on entry; nil = TOP (not yet seeded)
	argVal   aval    // incoming a0 binding; argTop until first call site seen
	argTop   bool
	argMulti bool // call sites disagree: a0 unknown

	// Summary delta: net effect of a call to this function.
	delta lstate

	ctx     uint32 // context bits (bit 0 = boot hart, bit i+1 = spawn i)
	widened bool
}

type instRef struct {
	pc uint32
	in isa.Inst
}

// Analyze runs the lockset and shared-state analysis over an.
func Analyze(an *static.Analysis, opts Options) *Result {
	if opts.Rounds <= 0 {
		opts.Rounds = 4
	}
	r := &Result{An: an}
	a := &analyzer{an: an, opts: opts, res: r, infos: map[uint32]*funcInfo{}}
	a.collectFuncs()
	a.buildObjects()
	a.assignContexts()
	a.fixpoint()
	a.collectAccesses()
	a.classify()
	return r
}

type analyzer struct {
	an    *static.Analysis
	opts  Options
	res   *Result
	infos map[uint32]*funcInfo
	order []*funcInfo

	objects []*Object
	objIdx  map[string]int

	spawnEntries []uint32       // resolved task entry pcs, sorted
	spawnHarts   map[uint32]int // task entry -> const hart id (-1 unknown)
}

func (a *analyzer) info(entry uint32) *funcInfo {
	fi := a.infos[entry]
	return fi
}

func (a *analyzer) collectFuncs() {
	for _, f := range a.an.Funcs {
		if !a.an.FuncReachable(f.Entry) {
			continue
		}
		fi := &funcInfo{f: f, facts: map[uint32]fact{}, argTop: true, delta: *newLstate()}
		for pc := f.Entry; pc < f.End; pc += 4 {
			if in, ok := a.an.InstAt(pc); ok {
				fi.insts = append(fi.insts, instRef{pc: pc, in: in})
			}
		}
		a.infos[f.Entry] = fi
		a.order = append(a.order, fi)
	}
}

// ---- object table ----

func (a *analyzer) buildObjects() {
	a.objIdx = map[string]int{}
	img := a.an.Image
	for _, s := range img.Symbols {
		if s.Kind != kasm.SymObject || s.Size == 0 {
			continue
		}
		a.addObject(&Object{Name: s.Name, Addr: s.Addr, Size: s.Size})
	}
	for _, t := range a.opts.Taint {
		if t.End <= t.Start {
			continue
		}
		a.addObject(&Object{
			Name: fmt.Sprintf("heap[%#x..%#x]", t.Start, t.End),
			Addr: t.Start, Size: t.End - t.Start,
		})
	}
	sort.Slice(a.objects, func(i, j int) bool { return a.objects[i].Addr < a.objects[j].Addr })
	for i, o := range a.objects {
		a.objIdx[o.Name] = i
	}
	a.res.Objects = a.objects
}

func (a *analyzer) addObject(o *Object) {
	if _, dup := a.objIdx[o.Name]; dup {
		return
	}
	a.objIdx[o.Name] = len(a.objects)
	a.objects = append(a.objects, o)
}

// objectAt maps an absolute address to the object containing it.
func (a *analyzer) objectAt(addr uint32) (int, bool) {
	lo, hi := 0, len(a.objects)
	for lo < hi {
		mid := (lo + hi) / 2
		o := a.objects[mid]
		if addr < o.Addr {
			hi = mid
		} else if addr >= o.Addr+o.Size {
			lo = mid + 1
		} else {
			return mid, true
		}
	}
	return 0, false
}

// ---- contexts (hart reachability) ----

// assignContexts finds task-spawn sites, then BFSes the call graph from the
// boot roots (image entry + indirect targets) and from each spawned task
// entry, tagging every function with the execution contexts it can run in.
func (a *analyzer) assignContexts() {
	a.spawnHarts = map[uint32]int{}
	// A first linear value pass per function resolves HCALL spawn operands;
	// the full flow-sensitive pass runs later, but spawn sites in this
	// codebase materialize their operands immediately before the hypercall.
	for _, fi := range a.order {
		st := entryState()
		for _, ir := range fi.insts {
			if ir.in.Op == isa.OpHCALL && ir.in.Imm == isa.HcallSpawn {
				entry := st.regs[isa.RegA1]
				hart := st.regs[isa.RegA0]
				if entry.kind == vConst && !entry.dyn {
					e := uint32(entry.off)
					if _, ok := a.spawnHarts[e]; !ok {
						a.spawnHarts[e] = -1
					}
					if hart.kind == vConst && !hart.dyn {
						a.spawnHarts[e] = int(int32(hart.off))
					}
				} else {
					a.res.UnknownSpawn = true
				}
			}
			stepValue(st, ir.pc, ir.in)
		}
	}
	for e := range a.spawnHarts {
		a.spawnEntries = append(a.spawnEntries, e)
	}
	sort.Slice(a.spawnEntries, func(i, j int) bool { return a.spawnEntries[i] < a.spawnEntries[j] })

	spawnSet := map[uint32]bool{}
	for _, e := range a.spawnEntries {
		spawnSet[e] = true
	}
	var bootRoots []uint32
	if f, ok := a.an.FuncContaining(a.an.Image.Entry); ok {
		bootRoots = append(bootRoots, f.Entry)
	}
	for _, t := range a.an.IndirectTargets() {
		if f, ok := a.an.FuncAt(t); ok && !spawnSet[f.Entry] {
			bootRoots = append(bootRoots, f.Entry)
		}
	}
	a.mark(bootRoots, 1)
	for i, e := range a.spawnEntries {
		bit := uint32(2) << uint(i%30)
		a.mark([]uint32{e}, bit)
	}
}

func (a *analyzer) mark(roots []uint32, bit uint32) {
	work := append([]uint32(nil), roots...)
	for len(work) > 0 {
		e := work[len(work)-1]
		work = work[:len(work)-1]
		fi := a.infos[e]
		if fi == nil || fi.ctx&bit != 0 {
			continue
		}
		fi.ctx |= bit
		work = append(work, fi.f.Callees...)
	}
}

// hartsOf translates a context bitmask into the set of hart ids it can run
// on (-1 = unknown).
func (a *analyzer) hartsOf(ctx uint32) []int {
	set := map[int]bool{}
	if ctx&1 != 0 {
		set[0] = true
	}
	for i, e := range a.spawnEntries {
		if ctx&(uint32(2)<<uint(i%30)) != 0 {
			set[a.spawnHarts[e]] = true
		}
	}
	if a.res.UnknownSpawn {
		set[-1] = true
	}
	ids := make([]int, 0, len(set))
	for h := range set {
		ids = append(ids, h)
	}
	sort.Ints(ids)
	return ids
}

// ---- value tracking (flow-sensitive, per function) ----

func entryState() *vstate {
	st := &vstate{slots: map[int32]aval{}}
	st.regs[isa.RegZero] = aval{kind: vConst}
	st.regs[isa.RegA0] = aval{kind: vArg}
	st.regs[isa.RegSP] = aval{kind: vSP}
	return st
}

func setReg(st *vstate, rd uint8, v aval) {
	if rd == isa.RegZero {
		return
	}
	st.regs[rd] = v
}

// stepValue advances the value state over one instruction.
func stepValue(st *vstate, pc uint32, in isa.Inst) {
	v := func(r uint8) aval { return st.regs[r] }
	switch in.Op {
	case isa.OpLUI:
		setReg(st, in.Rd, aval{kind: vConst, off: in.Imm << 12})
	case isa.OpAUIPC:
		setReg(st, in.Rd, aval{kind: vConst, off: int32(pc) + in.Imm<<12})
	case isa.OpADDI:
		setReg(st, in.Rd, v(in.Rs1).add(in.Imm))
	case isa.OpADD:
		a, b := v(in.Rs1), v(in.Rs2)
		switch {
		case a.kind == vConst && !a.dyn && b.kind == vConst && !b.dyn:
			setReg(st, in.Rd, aval{kind: vConst, off: a.off + b.off})
		case a.kind == vConst && !a.dyn && b.kind != vUnk:
			setReg(st, in.Rd, b.add(a.off))
		case b.kind == vConst && !b.dyn && a.kind != vUnk:
			setReg(st, in.Rd, a.add(b.off))
		case a.kind == vConst || a.kind == vArg:
			// base + dynamic amount: object known, offset not. SP-relative
			// bases lose entirely (dynamic stack addressing).
			setReg(st, in.Rd, aval{kind: a.kind, off: a.off, dyn: true})
		case b.kind == vConst || b.kind == vArg:
			setReg(st, in.Rd, aval{kind: b.kind, off: b.off, dyn: true})
		default:
			setReg(st, in.Rd, aval{})
		}
	case isa.OpSUB:
		a, b := v(in.Rs1), v(in.Rs2)
		if b.kind == vConst && !b.dyn && a.kind != vUnk {
			setReg(st, in.Rd, a.add(-b.off))
		} else {
			setReg(st, in.Rd, aval{})
		}
	case isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpSLLI, isa.OpSRLI, isa.OpSRAI,
		isa.OpSLTI, isa.OpSLTIU:
		a := v(in.Rs1)
		if a.kind == vConst && !a.dyn {
			setReg(st, in.Rd, aval{kind: vConst, off: constALU(in.Op, a.off, in.Imm)})
		} else {
			setReg(st, in.Rd, aval{})
		}
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLRW:
		base := v(in.Rs1)
		if base.kind == vSP && !base.dyn && in.Op == isa.OpLW {
			if sv, ok := st.slots[base.off+in.Imm]; ok {
				setReg(st, in.Rd, sv)
				return
			}
		}
		setReg(st, in.Rd, aval{})
	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSCW:
		base := v(in.Rs1)
		if base.kind == vSP && !base.dyn && in.Op == isa.OpSW {
			st.slots[base.off+in.Imm] = v(in.Rs2)
		}
		if in.Op == isa.OpSCW {
			setReg(st, in.Rd, aval{})
		}
	case isa.OpAMOADDW, isa.OpAMOSWAPW, isa.OpAMOORW, isa.OpAMOANDW:
		setReg(st, in.Rd, aval{})
	case isa.OpJAL:
		if in.Rd == isa.RegRA {
			clobberCall(st)
		}
	case isa.OpJALR:
		if !(in.Rd == isa.RegZero && in.Rs1 == isa.RegRA) {
			clobberCall(st)
		}
	case isa.OpCSRR:
		setReg(st, in.Rd, aval{})
	default:
		// Remaining ALU ops: result unknown.
		switch isa.ClassOf(in.Op) {
		case isa.ClassALU:
			setReg(st, in.Rd, aval{})
		}
	}
}

func constALU(op isa.Op, a, imm int32) int32 {
	switch op {
	case isa.OpANDI:
		return a & imm
	case isa.OpORI:
		return a | imm
	case isa.OpXORI:
		return a ^ imm
	case isa.OpSLLI:
		return a << uint(imm&31)
	case isa.OpSRLI:
		return int32(uint32(a) >> uint(imm&31))
	case isa.OpSRAI:
		return a >> uint(imm&31)
	case isa.OpSLTI:
		if a < imm {
			return 1
		}
		return 0
	case isa.OpSLTIU:
		if uint32(a) < uint32(imm) {
			return 1
		}
		return 0
	}
	return 0
}

// clobberCall applies the call-clobber convention: ra, a0–a7, t0, t1 are
// caller-saved; sp and the k-registers survive. Frame slots survive —
// callees do not write the caller's frame (documented assumption).
func clobberCall(st *vstate) {
	for _, r := range []uint8{isa.RegRA, isa.RegA0, isa.RegA1, isa.RegA2, isa.RegA3,
		isa.RegA4, isa.RegA5, isa.RegA6, isa.RegA7, isa.RegT0, isa.RegT1} {
		st.regs[r] = aval{}
	}
}

// valueFixpoint computes per-block entry value states for fi.
func (a *analyzer) valueFixpoint(fi *funcInfo) map[uint32]*vstate {
	blocks := fi.f.Blocks
	if len(blocks) == 0 {
		return nil
	}
	in := map[uint32]*vstate{blocks[0].Start: entryState()}
	cap := a.opts.MaxBlockIters
	if cap <= 0 {
		cap = 4*len(blocks) + 64
	}
	work := []uint32{blocks[0].Start}
	blkIdx := map[uint32]*static.Block{}
	for i := range blocks {
		blkIdx[blocks[i].Start] = &blocks[i]
	}
	for iter := 0; len(work) > 0 && iter < cap; iter++ {
		start := work[len(work)-1]
		work = work[:len(work)-1]
		blk := blkIdx[start]
		if blk == nil || in[start] == nil {
			continue
		}
		st := in[start].clone()
		for pc := blk.Start; pc < blk.End; pc += 4 {
			if inst, ok := a.an.InstAt(pc); ok {
				stepValue(st, pc, inst)
			}
		}
		for _, succ := range blk.Succs {
			if cur, ok := in[succ]; !ok {
				in[succ] = st.clone()
				work = append(work, succ)
			} else if cur.meet(st) {
				work = append(work, succ)
			}
		}
	}
	return in
}

// ---- fact extraction ----

// extractFacts walks fi with stabilized value states and records the
// lockset-relevant fact at each instruction.
func (a *analyzer) extractFacts(fi *funcInfo) {
	in := a.valueFixpoint(fi)
	fi.facts = map[uint32]fact{}
	for bi := range fi.f.Blocks {
		blk := &fi.f.Blocks[bi]
		st, ok := in[blk.Start]
		if !ok {
			continue
		}
		st = st.clone()
		for pc := blk.Start; pc < blk.End; pc += 4 {
			inst, ok := a.an.InstAt(pc)
			if !ok {
				continue
			}
			if f := a.factAt(fi, st, pc, inst); f.kind != factNone {
				fi.facts[pc] = f
			}
			stepValue(st, pc, inst)
		}
	}
}

// lockIDOf translates an abstract lock-word address into a lock identity.
func lockIDOf(v aval) uint64 {
	switch {
	case v.kind == vConst && !v.dyn:
		return uint64(uint32(v.off))
	case v.kind == vArg && !v.dyn && v.off == 0:
		return argLock
	}
	return 0
}

func (a *analyzer) factAt(fi *funcInfo, st *vstate, pc uint32, in isa.Inst) fact {
	switch in.Op {
	case isa.OpAMOSWAPW:
		// Spinlock primitive recognition. Release: store the zero register
		// into the lock word. Acquire: exchange a nonzero token and branch
		// on the old value within the next few instructions (the spin/irq
		// retry shapes both match).
		if in.Rd == isa.RegZero && in.Rs2 == isa.RegZero {
			return fact{kind: factRelease, lock: lockIDOf(st.regs[in.Rs1])}
		}
		if in.Rd != isa.RegZero && in.Rs2 != isa.RegZero && a.branchesOn(fi, pc, in.Rd) {
			return fact{kind: factAcquire, lock: lockIDOf(st.regs[in.Rs1])}
		}
		return fact{kind: factAccess, target: st.regs[in.Rs1], size: 4, write: true, atomic: true}
	case isa.OpAMOADDW, isa.OpAMOORW, isa.OpAMOANDW:
		return fact{kind: factAccess, target: st.regs[in.Rs1], size: 4, write: true, atomic: true}
	case isa.OpLRW:
		return fact{kind: factAccess, target: st.regs[in.Rs1], size: 4, atomic: true}
	case isa.OpSCW:
		return fact{kind: factAccess, target: st.regs[in.Rs1], size: 4, write: true, atomic: true}
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW:
		return fact{kind: factAccess, target: st.regs[in.Rs1].add(in.Imm),
			size: isa.AccessSize(in.Op)}
	case isa.OpSB, isa.OpSH, isa.OpSW:
		return fact{kind: factAccess, target: st.regs[in.Rs1].add(in.Imm),
			size: isa.AccessSize(in.Op), write: true}
	case isa.OpJAL:
		if in.Rd != isa.RegRA {
			return fact{}
		}
		target := uint32(int64(pc) + int64(in.Imm)*4)
		if _, ok := a.infos[target]; ok {
			return fact{kind: factCall, lock: uint64(target), arg: st.regs[isa.RegA0]}
		}
		return fact{kind: factIndirect}
	case isa.OpJALR:
		if in.Rd == isa.RegZero && in.Rs1 == isa.RegRA {
			return fact{} // return
		}
		return fact{kind: factIndirect}
	case isa.OpHCALL:
		if in.Imm == isa.HcallSpawn {
			return fact{kind: factSpawn, arg: st.regs[isa.RegA0], spawn: st.regs[isa.RegA1]}
		}
	}
	return fact{}
}

// branchesOn reports whether rd feeds a BEQ/BNE-against-zero within the
// next three instructions — the spin/irq retry test.
func (a *analyzer) branchesOn(fi *funcInfo, pc uint32, rd uint8) bool {
	for off := uint32(4); off <= 12; off += 4 {
		in, ok := a.an.InstAt(pc + off)
		if !ok || pc+off >= fi.f.End {
			return false
		}
		if in.Op == isa.OpBEQ || in.Op == isa.OpBNE {
			if (in.Rs1 == rd && in.Rs2 == isa.RegZero) || (in.Rs1 == isa.RegZero && in.Rs2 == rd) {
				return true
			}
		}
	}
	return false
}

// ---- lockset fixpoint ----

// substLock resolves a callee-relative lock id in a caller context: the
// callee's argLock becomes whatever the caller passed in a0.
func substLock(id uint64, arg aval) uint64 {
	if id != argLock {
		return id
	}
	return lockIDOf(arg)
}

// applyDelta applies a callee's summary delta to the caller's state,
// substituting the callee's argument lock.
func applyDelta(st *lstate, d *lstate, arg aval) {
	if d.clobber {
		st.release(0)
	}
	for k := range d.minus {
		st.release(substLock(k, arg))
	}
	for k := range d.plus {
		st.acquire(substLock(k, arg))
	}
}

// lockFixpoint runs the per-block must-lockset analysis over fi's recorded
// facts and returns per-block entry lstates. The iteration cap degrades the
// function to empty locksets — termination on irreducible CFGs.
func (a *analyzer) lockFixpoint(fi *funcInfo) map[uint32]*lstate {
	blocks := fi.f.Blocks
	if len(blocks) == 0 {
		return nil
	}
	in := map[uint32]*lstate{blocks[0].Start: newLstate()}
	blkIdx := map[uint32]*static.Block{}
	for i := range blocks {
		blkIdx[blocks[i].Start] = &blocks[i]
	}
	capIters := a.opts.MaxBlockIters
	if capIters <= 0 {
		capIters = 4*len(blocks) + 64
	}
	work := []uint32{blocks[0].Start}
	iters := 0
	for len(work) > 0 {
		if iters++; iters > capIters {
			// Widening surrogate: degrade every block to the empty relative
			// lockset with a full clobber — sound (fewer must-held locks)
			// and trivially a fixpoint.
			fi.widened = true
			for start := range in {
				in[start] = &lstate{plus: lockset{}, minus: lockset{}, clobber: true}
			}
			break
		}
		start := work[len(work)-1]
		work = work[:len(work)-1]
		blk := blkIdx[start]
		if blk == nil || in[start] == nil {
			continue
		}
		st := in[start].clone()
		a.stepLocksBlock(fi, blk, st, nil)
		for _, succ := range blk.Succs {
			if cur, ok := in[succ]; !ok {
				in[succ] = st.clone()
				work = append(work, succ)
			} else if cur.meet(st) {
				work = append(work, succ)
			}
		}
	}
	return in
}

// stepLocksBlock advances st across blk's facts; when visit is non-nil it is
// called with the state before each instruction.
func (a *analyzer) stepLocksBlock(fi *funcInfo, blk *static.Block, st *lstate, visit func(pc uint32, f fact, st *lstate)) {
	for pc := blk.Start; pc < blk.End; pc += 4 {
		f, ok := fi.facts[pc]
		if !ok {
			continue
		}
		if visit != nil {
			visit(pc, f, st)
		}
		switch f.kind {
		case factAcquire:
			st.acquire(f.lock)
		case factRelease:
			st.release(f.lock)
		case factCall:
			if callee := a.infos[uint32(f.lock)]; callee != nil {
				applyDelta(st, &callee.delta, f.arg)
			}
		case factIndirect:
			// Unknown callee: it may release anything.
			st.release(0)
		}
	}
}

// absolute resolves a relative lstate against fi's entry lockset and
// argument binding into the set of concrete lock word addresses must-held.
func (a *analyzer) absolute(fi *funcInfo, st *lstate) []uint32 {
	held := map[uint32]bool{}
	if !st.clobber && fi.entryLS != nil {
		for k := range fi.entryLS {
			if k < 1<<32 && !st.minus[k] {
				held[uint32(k)] = true
			}
		}
	}
	for k := range st.plus {
		k = substLockBind(k, fi)
		if k != 0 && k < 1<<32 {
			held[uint32(k)] = true
		}
	}
	out := make([]uint32, 0, len(held))
	for k := range held {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// substLockBind resolves fi's own argLock through its interprocedural
// argument binding (the unique constant every call site passes, if any).
func substLockBind(id uint64, fi *funcInfo) uint64 {
	if id != argLock {
		return id
	}
	if !fi.argTop && !fi.argMulti {
		return lockIDOf(fi.argVal)
	}
	return 0
}

// fixpoint runs the bounded-context interprocedural rounds: each round
// recomputes facts and summaries, then propagates call-site locksets and
// argument bindings into callees.
func (a *analyzer) fixpoint() {
	// Seed the roots: the boot entry, indirect targets and spawned tasks
	// all start with no locks held.
	for _, fi := range a.order {
		if fi.ctx != 0 {
			continue
		}
	}
	seed := func(entry uint32) {
		if fi := a.infos[entry]; fi != nil {
			fi.entryLS = lockset{}
			fi.argTop = false
			fi.argMulti = true
		}
	}
	if f, ok := a.an.FuncContaining(a.an.Image.Entry); ok {
		seed(f.Entry)
	}
	for _, t := range a.an.IndirectTargets() {
		if f, ok := a.an.FuncAt(t); ok {
			seed(f.Entry)
		}
	}
	for _, e := range a.spawnEntries {
		seed(e)
	}

	for round := 0; round < a.opts.Rounds; round++ {
		for _, fi := range a.order {
			a.extractFacts(fi)
			in := a.lockFixpoint(fi)
			// Summary delta: meet of the states at every return site.
			var exit *lstate
			blkIdx := map[uint32]*static.Block{}
			for i := range fi.f.Blocks {
				blkIdx[fi.f.Blocks[i].Start] = &fi.f.Blocks[i]
			}
			for _, blk := range fi.f.Blocks {
				st, ok := in[blk.Start]
				if !ok {
					continue
				}
				st = st.clone()
				endsInRet := false
				a.stepLocksBlock(fi, &blk, st, nil)
				if inst, ok := a.an.InstAt(blk.End - 4); ok &&
					inst.Op == isa.OpJALR && inst.Rd == isa.RegZero && inst.Rs1 == isa.RegRA {
					endsInRet = true
				}
				if !endsInRet {
					continue
				}
				if exit == nil {
					exit = st
				} else {
					exit.meet(st)
				}
			}
			if exit != nil {
				fi.delta = *exit
			}
			// Call-edge propagation: push this function's context into its
			// callees (entry lockset = intersection over call sites, arg
			// binding = unique value or unknown).
			for _, blk := range fi.f.Blocks {
				st, ok := in[blk.Start]
				if !ok {
					continue
				}
				st = st.clone()
				a.stepLocksBlock(fi, &blk, st, func(pc uint32, f fact, cur *lstate) {
					if f.kind != factCall {
						return
					}
					callee := a.infos[uint32(f.lock)]
					if callee == nil || fi.entryLS == nil {
						return
					}
					abs := a.absolute(fi, cur)
					ls := lockset{}
					for _, addr := range abs {
						ls[uint64(addr)] = true
					}
					if callee.entryLS == nil {
						callee.entryLS = ls
					} else {
						for k := range callee.entryLS {
							if !ls[k] {
								delete(callee.entryLS, k)
							}
						}
					}
					// Argument binding: resolve the caller's a0 through the
					// caller's own binding first.
					av := f.arg
					if av.kind == vArg {
						if !fi.argTop && !fi.argMulti && fi.argVal.kind == vConst && !av.dyn {
							av = aval{kind: vConst, off: fi.argVal.off + av.off, dyn: fi.argVal.dyn}
						} else {
							av = aval{}
						}
					}
					if callee.argTop {
						callee.argTop = false
						callee.argVal = av
					} else if !avalEq(callee.argVal, av) {
						callee.argMulti = true
					}
				})
			}
		}
	}
	for _, fi := range a.order {
		if fi.widened {
			a.res.Widened = append(a.res.Widened, fi.f.Name)
		}
	}
	sort.Strings(a.res.Widened)
}

// ---- access collection ----

func (a *analyzer) collectAccesses() {
	unresolvedHarts := map[int]bool{}
	for _, fi := range a.order {
		in := a.lockFixpoint(fi)
		harts := a.hartsOf(fi.ctx)
		for _, blk := range fi.f.Blocks {
			st, ok := in[blk.Start]
			if !ok {
				continue
			}
			st = st.clone()
			a.stepLocksBlock(fi, &blk, st, func(pc uint32, f fact, cur *lstate) {
				if f.kind != factAccess {
					return
				}
				obj, off, ok := a.resolveTarget(fi, f.target)
				if !ok {
					a.res.Unresolved++
					for _, h := range harts {
						unresolvedHarts[h] = true
					}
					return
				}
				if obj < 0 {
					return // own-frame access: inherently hart-local, not shared state
				}
				locks := a.absolute(fi, cur)
				idx := len(a.res.Accesses)
				a.res.Accesses = append(a.res.Accesses, Access{
					PC: pc, Func: fi.f.Name, Object: obj, Off: off,
					Size: f.size, Write: f.write, Atomic: f.atomic,
					Locks: locks, Harts: harts,
				})
				a.objects[obj].Accesses = append(a.objects[obj].Accesses, idx)
			})
		}
	}
	for h := range unresolvedHarts {
		a.res.UnresolvedHarts = append(a.res.UnresolvedHarts, h)
	}
	sort.Ints(a.res.UnresolvedHarts)
	sort.SliceStable(a.res.Accesses, func(i, j int) bool { return a.res.Accesses[i].PC < a.res.Accesses[j].PC })
	// Re-index objects' access lists after the sort.
	for _, o := range a.objects {
		o.Accesses = o.Accesses[:0]
	}
	for i := range a.res.Accesses {
		acc := &a.res.Accesses[i]
		a.objects[acc.Object].Accesses = append(a.objects[acc.Object].Accesses, i)
	}
}

// resolveTarget maps an abstract address to (object index, offset). An
// SP-relative target returns obj = -1 (own frame, never shared). ok=false
// means unresolved.
func (a *analyzer) resolveTarget(fi *funcInfo, t aval) (obj int, off uint32, ok bool) {
	switch t.kind {
	case vSP:
		return -1, 0, true
	case vConst:
		idx, found := a.objectAt(uint32(t.off))
		if !found {
			// A constant address outside every known object: device windows,
			// text-embedded tables. Not shared state we track.
			return -1, 0, true
		}
		if t.dyn {
			return idx, OffUnknown, true
		}
		return idx, uint32(t.off) - a.objects[idx].Addr, true
	case vArg:
		if fi.argTop || fi.argMulti || fi.argVal.kind != vConst {
			return 0, 0, false
		}
		base := fi.argVal.off + t.off
		idx, found := a.objectAt(uint32(base))
		if !found {
			return 0, 0, false
		}
		if t.dyn || fi.argVal.dyn {
			return idx, OffUnknown, true
		}
		return idx, uint32(base) - a.objects[idx].Addr, true
	}
	return 0, 0, false
}

// ---- classification & pairing ----

// maxPairsPerObject bounds the emitted candidate pairs per object; the count
// of suppressed pairs is visible through the object's class and accesses.
const maxPairsPerObject = 16

func (a *analyzer) classify() {
	for objIdx, o := range a.objects {
		if len(o.Accesses) == 0 {
			o.Class = ClassUnknown
			continue
		}
		allAtomic := true
		harts := map[int]bool{}
		var common []uint32
		first := true
		for _, ai := range o.Accesses {
			acc := &a.res.Accesses[ai]
			if !acc.Atomic {
				allAtomic = false
				if first {
					common = append([]uint32(nil), acc.Locks...)
					first = false
				} else {
					common = intersect(common, acc.Locks)
				}
			}
			for _, h := range acc.Harts {
				harts[h] = true
			}
		}
		switch {
		case allAtomic:
			// Marked-atomic discipline: atomics never arm watchpoints and
			// never conflict with each other.
			o.Class = ClassProtected
		case len(harts) == 1 && !harts[-1]:
			o.Class = ClassHartLocal
		case len(common) > 0:
			o.Class = ClassProtected
			o.Lockset = common
		default:
			o.Class = ClassRacy
			a.emitPairs(objIdx, o)
		}
	}
	sort.Slice(a.res.Pairs, func(i, j int) bool {
		pi, pj := a.res.Pairs[i], a.res.Pairs[j]
		ai, aj := a.res.Accesses[pi.A], a.res.Accesses[pj.A]
		if ai.PC != aj.PC {
			return ai.PC < aj.PC
		}
		return a.res.Accesses[pi.B].PC < a.res.Accesses[pj.B].PC
	})
}

func (a *analyzer) emitPairs(objIdx int, o *Object) {
	n := 0
	for x := 0; x < len(o.Accesses); x++ {
		for y := x + 1; y < len(o.Accesses); y++ {
			ai, bi := o.Accesses[x], o.Accesses[y]
			p, q := &a.res.Accesses[ai], &a.res.Accesses[bi]
			if !p.Write && !q.Write {
				continue
			}
			if p.Atomic && q.Atomic {
				continue
			}
			if !rangesOverlap(p, q, o) {
				continue
			}
			if len(intersect(p.Locks, q.Locks)) > 0 {
				continue
			}
			if !differentHartsPossible(p.Harts, q.Harts) {
				continue
			}
			if n >= maxPairsPerObject {
				return
			}
			n++
			a.res.Pairs = append(a.res.Pairs, Pair{Object: objIdx, A: ai, B: bi})
		}
	}
}

func rangesOverlap(p, q *Access, o *Object) bool {
	ps, pe := accRange(p, o)
	qs, qe := accRange(q, o)
	return ps < qe && qs < pe
}

func accRange(acc *Access, o *Object) (uint32, uint32) {
	if acc.Off == OffUnknown {
		return 0, o.Size
	}
	return acc.Off, acc.Off + acc.Size
}

func intersect(a, b []uint32) []uint32 {
	var out []uint32
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

func differentHartsPossible(a, b []int) bool {
	for _, x := range a {
		if x == -1 {
			return true
		}
		for _, y := range b {
			if y == -1 || x != y {
				return true
			}
		}
	}
	return false
}
