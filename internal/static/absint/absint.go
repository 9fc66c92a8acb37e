// Package absint is EMBSAN's static safety prover: a flow-sensitive
// interval abstract interpretation over the CFGs recovered by
// internal/static. It tracks, per basic block, each register as one of
// {constant/absolute interval, stack-relative interval, unknown} and
// classifies every memory access as provably-safe — the entire accessed
// range is inside a known object on every execution, away from redzones —
// or must-check.
//
// Two readers consume the classification: the campaign stats' `prove`
// column (fuzz.Stats.ProvenAccesses) and the benchmark's per-image proof
// tally (Stats).
//
// Soundness rests on the same assumptions the rest of the toolchain already
// makes: indirect control transfers only target recovered entries (address
// materialisations and data-word tables, both captured by the entry
// discovery), calls follow the ABI (callees preserve sp, clobber everything
// else), and stack discipline keeps [sp, entry-sp) private to the running
// function. Anything outside those assumptions degrades to must-check —
// never to a wrong proof: blocks entered by cross-function edges are
// re-analysed from a ⊤ state, unresolvable values widen to unknown, and
// stripped images (no symbols, no metadata) retain only stack and MMIO
// proofs.
package absint

import (
	"sort"

	"embsan/internal/emu"
	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/static"
)

// ProofKind classifies how an access was proven safe.
type ProofKind uint8

const (
	// ProofNone: must-check. The access keeps its sanitizer dispatch.
	ProofNone ProofKind = iota
	// ProofGlobal: the accessed range is inside one known global object's
	// payload on every execution.
	ProofGlobal
	// ProofStack: the access stays inside the enclosing function's own
	// live stack frame.
	ProofStack
	// ProofMMIO: the access targets device memory, which the sanitizer
	// runtime ignores by construction.
	ProofMMIO
)

func (k ProofKind) String() string {
	switch k {
	case ProofGlobal:
		return "global"
	case ProofStack:
		return "stack"
	case ProofMMIO:
		return "mmio"
	}
	return "none"
}

// Access is the classification of one load/store/atomic site.
type Access struct {
	PC        uint32
	Size      uint32
	Write     bool
	Kind      ProofKind
	Object    string // containing object for ProofGlobal
	Reachable bool   // the containing block is statically reachable
}

// Stats aggregates the classification over one image.
type Stats struct {
	Accesses          int // all load/store/atomic sites in text
	Proven            int
	ReachableAccesses int // sites in statically reachable blocks
	ReachableProven   int
	Global            int
	Stack             int
	MMIO              int
}

// Options tunes an analysis run.
type Options struct {
	// MaxIters caps the fixpoint sweeps per function (safety valve; the
	// widening rule converges far earlier). A function that fails to
	// converge gets no proofs. Defaults to 50 + 10·blocks.
	MaxIters int
}

// Result is the full classification of one image, sorted by PC.
type Result struct {
	Accesses []Access
	Stats    Stats
}

// At returns the classification of the access at pc.
func (r *Result) At(pc uint32) (Access, bool) {
	i := sort.Search(len(r.Accesses), func(i int) bool { return r.Accesses[i].PC >= pc })
	if i < len(r.Accesses) && r.Accesses[i].PC == pc {
		return r.Accesses[i], true
	}
	return Access{}, false
}

// ---- abstract domain ----

// vkind distinguishes what an interval is relative to.
type vkind uint8

const (
	kUnknown vkind = iota // ⊤: any value
	kAbs                  // absolute value interval (constants, object addresses)
	kStack                // offset interval relative to the function-entry sp
)

// aval is one abstract register value: a closed interval [lo, hi] of the
// given kind. The zero value is ⊤.
type aval struct {
	k      vkind
	lo, hi int64
}

// wideLimit bounds stack-relative intervals; anything wider is ⊤.
const wideLimit = int64(1) << 40

// wideThreshold is the widening rule: once a block's in-state has been
// refined this many times, any register still changing jumps straight to ⊤,
// which bounds the fixpoint iteration.
const wideThreshold = 4

func exact(v uint32) aval { return aval{k: kAbs, lo: int64(v), hi: int64(v)} }

func (a aval) exactAbs() bool  { return a.k == kAbs && a.lo == a.hi }
func (a aval) exactZero() bool { return a.k == kAbs && a.lo == 0 && a.hi == 0 }

// norm canonicalises after arithmetic: exact absolute values wrap mod 2^32
// like the machine; non-exact intervals that leave the 32-bit range (where
// wraparound would fragment them) and oversized stack deltas widen to ⊤.
func norm(a aval) aval {
	switch a.k {
	case kAbs:
		if a.lo == a.hi {
			v := int64(uint32(a.lo))
			return aval{k: kAbs, lo: v, hi: v}
		}
		if a.lo < 0 || a.hi >= 1<<32 {
			return aval{}
		}
	case kStack:
		if a.lo < -wideLimit || a.hi > wideLimit {
			return aval{}
		}
	}
	return a
}

func addv(a, b aval) aval {
	if a.k == kUnknown || b.k == kUnknown || (a.k == kStack && b.k == kStack) {
		return aval{}
	}
	k := kAbs
	if a.k == kStack || b.k == kStack {
		k = kStack
	}
	return norm(aval{k: k, lo: a.lo + b.lo, hi: a.hi + b.hi})
}

func subv(a, b aval) aval {
	if a.k == kUnknown || b.k == kUnknown {
		return aval{}
	}
	var k vkind
	switch {
	case a.k == kStack && b.k == kStack:
		k = kAbs // delta difference is absolute
	case a.k == kStack:
		k = kStack
	case b.k == kStack:
		return aval{} // absolute minus stack-relative: meaningless
	default:
		k = kAbs
	}
	return norm(aval{k: k, lo: a.lo - b.hi, hi: a.hi - b.lo})
}

func addImm(a aval, imm int32) aval {
	if a.k == kUnknown {
		return aval{}
	}
	return norm(aval{k: a.k, lo: a.lo + int64(imm), hi: a.hi + int64(imm)})
}

// joinv is the lattice join: interval hull on matching kinds, ⊤ otherwise.
func joinv(a, b aval) aval {
	if a == b {
		return a
	}
	if a.k == kUnknown || b.k == kUnknown || a.k != b.k {
		return aval{}
	}
	j := a
	if b.lo < j.lo {
		j.lo = b.lo
	}
	if b.hi > j.hi {
		j.hi = b.hi
	}
	return norm(j)
}

// state is the per-program-point abstract machine: one aval per register.
// Index 0 (the zero register) is pinned to exact 0.
type state [isa.NumRegs]aval

func joinState(a, b state) state {
	var j state
	for i := range a {
		j[i] = joinv(a[i], b[i])
	}
	j[isa.RegZero] = exact(0)
	return j
}

// entryState is the sound assumption for any arrival at a function entry:
// nothing known except the architecture zero and sp ≡ entry-sp.
func entryState() state {
	var s state
	s[isa.RegZero] = exact(0)
	s[isa.RegSP] = aval{k: kStack}
	return s
}

// topState is the assumption for blocks entered by cross-function edges:
// even sp is foreign there.
func topState() state {
	var s state
	s[isa.RegZero] = exact(0)
	return s
}

// clobberCall models an ABI call returning: everything dead except sp.
func clobberCall(s state) state {
	var out state
	out[isa.RegZero] = exact(0)
	out[isa.RegSP] = s[isa.RegSP]
	return out
}

// ---- transfer functions ----

func getReg(st *state, r uint8) aval {
	if r == isa.RegZero || int(r) >= isa.NumRegs {
		return exact(0)
	}
	return st[r]
}

func setReg(st *state, rd uint8, v aval) {
	if rd != isa.RegZero && int(rd) < isa.NumRegs {
		st[rd] = norm(v)
	}
}

// binALU evaluates a reg-reg ALU op abstractly: exact operands compute the
// machine result exactly (mirroring emu semantics, including division by
// zero), identities with the zero register pass values through, and
// everything else is ⊤. ADD/SUB are handled by the caller via interval
// arithmetic.
func binALU(op isa.Op, a, b aval) aval {
	if a.exactAbs() && b.exactAbs() {
		return exact(concreteALU(op, uint32(a.lo), uint32(b.lo)))
	}
	switch op {
	case isa.OpOR, isa.OpXOR:
		if b.exactZero() {
			return a
		}
		if a.exactZero() {
			return b
		}
	case isa.OpAND:
		if a.exactZero() || b.exactZero() {
			return exact(0)
		}
	case isa.OpSLL, isa.OpSRL, isa.OpSRA:
		if b.exactZero() {
			return a
		}
	}
	return aval{}
}

func concreteALU(op isa.Op, x, y uint32) uint32 {
	switch op {
	case isa.OpAND:
		return x & y
	case isa.OpOR:
		return x | y
	case isa.OpXOR:
		return x ^ y
	case isa.OpSLL:
		return x << (y & 31)
	case isa.OpSRL:
		return x >> (y & 31)
	case isa.OpSRA:
		return uint32(int32(x) >> (y & 31))
	case isa.OpMUL:
		return x * y
	case isa.OpMULHU:
		return uint32((uint64(x) * uint64(y)) >> 32)
	case isa.OpDIV:
		a, b := int32(x), int32(y)
		switch {
		case b == 0:
			return 0xFFFFFFFF
		case a == -1<<31 && b == -1:
			return uint32(a)
		default:
			return uint32(a / b)
		}
	case isa.OpDIVU:
		if y == 0 {
			return 0xFFFFFFFF
		}
		return x / y
	case isa.OpREM:
		a, b := int32(x), int32(y)
		switch {
		case b == 0:
			return uint32(a)
		case a == -1<<31 && b == -1:
			return 0
		default:
			return uint32(a % b)
		}
	case isa.OpREMU:
		if y == 0 {
			return x
		}
		return x % y
	}
	return 0
}

// step applies one instruction's effect to st. Control transfer and memory
// side effects are handled by the caller; this only models register writes.
func step(st *state, in isa.Inst, pc uint32) {
	switch in.Op {
	case isa.OpLUI:
		setReg(st, in.Rd, exact(uint32(in.Imm)<<12))
	case isa.OpAUIPC:
		setReg(st, in.Rd, exact(pc+uint32(in.Imm)<<12))
	case isa.OpADDI:
		setReg(st, in.Rd, addImm(getReg(st, in.Rs1), in.Imm))
	case isa.OpADD:
		setReg(st, in.Rd, addv(getReg(st, in.Rs1), getReg(st, in.Rs2)))
	case isa.OpSUB:
		setReg(st, in.Rd, subv(getReg(st, in.Rs1), getReg(st, in.Rs2)))
	case isa.OpANDI:
		a := getReg(st, in.Rs1)
		switch {
		case a.exactAbs():
			setReg(st, in.Rd, exact(uint32(a.lo)&uint32(in.Imm)))
		case in.Imm >= 0:
			setReg(st, in.Rd, aval{k: kAbs, lo: 0, hi: int64(in.Imm)})
		default:
			setReg(st, in.Rd, aval{})
		}
	case isa.OpORI:
		a := getReg(st, in.Rs1)
		switch {
		case in.Imm == 0:
			setReg(st, in.Rd, a)
		case a.exactAbs():
			setReg(st, in.Rd, exact(uint32(a.lo)|uint32(in.Imm)))
		default:
			setReg(st, in.Rd, aval{})
		}
	case isa.OpXORI:
		a := getReg(st, in.Rs1)
		switch {
		case in.Imm == 0:
			setReg(st, in.Rd, a)
		case a.exactAbs():
			setReg(st, in.Rd, exact(uint32(a.lo)^uint32(in.Imm)))
		default:
			setReg(st, in.Rd, aval{})
		}
	case isa.OpSLLI:
		a := getReg(st, in.Rs1)
		sh := uint32(in.Imm) & 31
		switch {
		case a.exactAbs():
			setReg(st, in.Rd, exact(uint32(a.lo)<<sh))
		case sh == 0:
			setReg(st, in.Rd, a)
		case a.k == kAbs && a.lo >= 0 && a.hi<<sh < 1<<32:
			setReg(st, in.Rd, aval{k: kAbs, lo: a.lo << sh, hi: a.hi << sh})
		default:
			setReg(st, in.Rd, aval{})
		}
	case isa.OpSRLI:
		a := getReg(st, in.Rs1)
		sh := uint32(in.Imm) & 31
		switch {
		case a.exactAbs():
			setReg(st, in.Rd, exact(uint32(a.lo)>>sh))
		case sh == 0:
			setReg(st, in.Rd, a)
		case a.k == kAbs && a.lo >= 0:
			setReg(st, in.Rd, aval{k: kAbs, lo: a.lo >> sh, hi: a.hi >> sh})
		default:
			setReg(st, in.Rd, aval{})
		}
	case isa.OpSRAI:
		a := getReg(st, in.Rs1)
		if a.exactAbs() {
			setReg(st, in.Rd, exact(uint32(int32(uint32(a.lo))>>(uint32(in.Imm)&31))))
		} else if uint32(in.Imm)&31 == 0 {
			setReg(st, in.Rd, a)
		} else {
			setReg(st, in.Rd, aval{})
		}
	case isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRL, isa.OpSRA,
		isa.OpMUL, isa.OpMULHU, isa.OpDIV, isa.OpDIVU, isa.OpREM, isa.OpREMU:
		setReg(st, in.Rd, binALU(in.Op, getReg(st, in.Rs1), getReg(st, in.Rs2)))
	case isa.OpSLT, isa.OpSLTU, isa.OpSLTI, isa.OpSLTIU:
		setReg(st, in.Rd, aval{k: kAbs, lo: 0, hi: 1})
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLRW:
		setReg(st, in.Rd, aval{})
	case isa.OpSCW:
		setReg(st, in.Rd, aval{k: kAbs, lo: 0, hi: 1})
	case isa.OpAMOADDW, isa.OpAMOSWAPW, isa.OpAMOORW, isa.OpAMOANDW:
		setReg(st, in.Rd, aval{})
	case isa.OpJAL, isa.OpJALR:
		setReg(st, in.Rd, exact(pc+4))
	case isa.OpCSRR:
		setReg(st, in.Rd, aval{})
	}
	// Stores, branches, FENCE, SANCK, CSRW, YIELD, HALT write no register;
	// hypercall handlers never write the current hart's registers.
}

// effImm is the address offset the hardware applies: the immediate for
// loads/stores (including LRW), zero for the register-addressed SCW/AMOs.
func effImm(in isa.Inst) int64 {
	switch in.Op {
	case isa.OpSCW, isa.OpAMOADDW, isa.OpAMOSWAPW, isa.OpAMOORW, isa.OpAMOANDW:
		return 0
	}
	return int64(in.Imm)
}

// ---- analysis driver ----

// object is a candidate proof target: a named global with a known payload.
type object struct {
	name     string
	addr     uint32 // payload start
	size     uint32
	redzone  uint32
	eligible bool
}

func (o *object) footprint() (lo, hi int64) {
	return int64(o.addr) - int64(o.redzone), int64(o.addr) + int64(o.size) + int64(o.redzone)
}

type analyzer struct {
	an   *static.Analysis
	img  *kasm.Image
	opts Options

	objs     []object            // sorted by payload address
	poisonFn map[uint32]bool     // funcs containing runtime poison hypercalls
	hazardFn map[uint32]bool     // funcs whose address materialisations taint objects
	xtargets map[uint32][]uint32 // func entry -> cross-function edge targets inside it
}

// Analyze classifies every memory access of the analysed image. The result
// is deterministic: identical inputs produce identical proof sets.
func Analyze(an *static.Analysis, opts Options) *Result {
	az := &analyzer{
		an:       an,
		img:      an.Image,
		opts:     opts,
		poisonFn: map[uint32]bool{},
		hazardFn: map[uint32]bool{},
		xtargets: map[uint32][]uint32{},
	}
	az.buildObjects()
	az.scanFunctions()
	az.taintMaterialised()
	az.findCrossEdges()

	proofs := map[uint32]Access{}
	for _, f := range an.Funcs {
		az.analyzeFunc(f, proofs)
	}

	res := &Result{}
	for pc := az.img.Base; pc < az.img.TextEnd(); pc += 4 {
		in, ok := an.InstAt(pc)
		if !ok || !isAccessOp(in.Op) {
			continue
		}
		acc := Access{
			PC:        pc,
			Size:      isa.AccessSize(in.Op),
			Write:     isa.IsWrite(in.Op),
			Reachable: an.BlockReachable(pc),
		}
		if p, ok := proofs[pc]; ok {
			acc.Kind, acc.Object = p.Kind, p.Object
		}
		res.Accesses = append(res.Accesses, acc)
		res.Stats.Accesses++
		if acc.Reachable {
			res.Stats.ReachableAccesses++
		}
		if acc.Kind != ProofNone {
			res.Stats.Proven++
			if acc.Reachable {
				res.Stats.ReachableProven++
			}
			switch acc.Kind {
			case ProofGlobal:
				res.Stats.Global++
			case ProofStack:
				res.Stats.Stack++
			case ProofMMIO:
				res.Stats.MMIO++
			}
		}
	}
	return res
}

func isAccessOp(op isa.Op) bool {
	switch isa.ClassOf(op) {
	case isa.ClassLoad, isa.ClassStore, isa.ClassAtomic:
		return true
	}
	return false
}

// buildObjects collects named globals from the symbol table, overlaying
// redzone widths from the EMBSAN-C metadata. Stripped images have no
// symbols, so no global proofs — exactly the D-closed degradation the paper expects.
func (az *analyzer) buildObjects() {
	rz := map[uint32]uint32{}
	for _, g := range az.img.Meta.Globals {
		rz[g.Addr] = g.Redzone
	}
	for _, s := range az.img.Symbols {
		if s.Kind != kasm.SymObject || s.Size == 0 {
			continue
		}
		az.objs = append(az.objs, object{
			name:     s.Name,
			addr:     s.Addr,
			size:     s.Size,
			redzone:  rz[s.Addr],
			eligible: true,
		})
	}
	sort.Slice(az.objs, func(i, j int) bool { return az.objs[i].addr < az.objs[j].addr })
}

// scanFunctions records which functions contain sanitizer-state hypercalls.
// Functions that poison (SanPoison/SanUnpoison — the guarded stack-buffer
// pattern) get no stack proofs: their own frames can legitimately trap.
// Those plus allocator hooks and hart spawns make a function hazardous for
// materialisation taint, as do direct callers of poisoning functions
// (a poison helper taking the region address as an argument).
func (az *analyzer) scanFunctions() {
	for _, f := range az.an.Funcs {
		for pc := f.Entry; pc < f.End; pc += 4 {
			in, ok := az.an.InstAt(pc)
			if !ok || in.Op != isa.OpHCALL {
				continue
			}
			switch in.Imm {
			case isa.HcallSanPoison, isa.HcallSanUnpoison:
				az.poisonFn[f.Entry] = true
				az.hazardFn[f.Entry] = true
			case isa.HcallSanAlloc, isa.HcallSanFree, isa.HcallSanCacheNew, isa.HcallSpawn:
				az.hazardFn[f.Entry] = true
			}
		}
	}
	for _, f := range az.an.Funcs {
		for _, c := range f.Callees {
			if az.poisonFn[c] {
				az.hazardFn[f.Entry] = true
			}
		}
	}
}

// taintMaterialised walks every lui+addi address materialisation (the La
// idiom). A global whose address is taken inside a hazardous function, a
// NoSan region (allocator internals), or into the stack pointer (stack
// backing store) is disqualified from global proofs: the runtime may
// poison inside it.
func (az *analyzer) taintMaterialised() {
	img := az.img
	for pc := img.Base; pc+4 < img.TextEnd(); pc += 4 {
		lui, ok1 := az.an.InstAt(pc)
		add, ok2 := az.an.InstAt(pc + 4)
		if !ok1 || !ok2 || lui.Op != isa.OpLUI || add.Op != isa.OpADDI ||
			add.Rd != lui.Rd || add.Rs1 != lui.Rd {
			continue
		}
		v := int64(uint32(lui.Imm)<<12 + uint32(add.Imm))
		hazard := lui.Rd == isa.RegSP || img.Meta.InNoSan(pc)
		if !hazard {
			if f, ok := az.an.FuncContaining(pc); ok && az.hazardFn[f.Entry] {
				hazard = true
			}
		}
		if !hazard {
			continue
		}
		for i := range az.objs {
			lo, hi := az.objs[i].footprint()
			if v >= lo && v < hi {
				az.objs[i].eligible = false
			}
		}
	}
}

// findCrossEdges records branch/jump targets that land inside a *different*
// function (not at its entry). The suffix from such a target runs with
// foreign register state, so it is re-analysed from ⊤ and its
// classifications are intersected with the intra-procedural ones.
func (az *analyzer) findCrossEdges() {
	seen := map[uint32]bool{}
	for _, f := range az.an.Funcs {
		for _, b := range f.Blocks {
			for _, s := range b.Succs {
				if s >= f.Entry && s < f.End {
					continue
				}
				g, ok := az.an.FuncContaining(s)
				if !ok || s == g.Entry || seen[s] {
					continue
				}
				seen[s] = true
				az.xtargets[g.Entry] = append(az.xtargets[g.Entry], s)
			}
		}
	}
	for e := range az.xtargets {
		sort.Slice(az.xtargets[e], func(i, j int) bool { return az.xtargets[e][i] < az.xtargets[e][j] })
	}
}

// node is one fixpoint unit: a real basic block, or a virtual suffix block
// modelling arrival from a cross-function edge.
type node struct {
	start, end uint32
	succs      []uint32 // in-function successor leaders
	call       bool     // ends in a call: the fall-through successor is clobbered
	virtual    bool
}

func (az *analyzer) makeNode(f *static.Func, b static.Block, start uint32, virtual bool) node {
	n := node{start: start, end: b.End, virtual: virtual}
	if last, ok := az.an.InstAt(b.End - 4); ok {
		n.call = (last.Op == isa.OpJAL || last.Op == isa.OpJALR) && last.Rd == isa.RegRA
	}
	for _, s := range b.Succs {
		if s >= f.Entry && s < f.End {
			n.succs = append(n.succs, s)
		}
	}
	return n
}

// walk runs a node's instructions over st, invoking visit (when non-nil)
// with the state *before* each instruction executes.
func (az *analyzer) walk(n node, st state, visit func(pc uint32, in isa.Inst, st *state)) state {
	for pc := n.start; pc < n.end; pc += 4 {
		in, ok := az.an.InstAt(pc)
		if !ok {
			break
		}
		if visit != nil {
			visit(pc, in, &st)
		}
		step(&st, in, pc)
	}
	return st
}

// analyzeFunc runs the per-function worklist fixpoint with widening, then a
// classification pass, merging proofs into the shared map. Iteration order
// is fully deterministic (sorted blocks, repeated sweeps).
func (az *analyzer) analyzeFunc(f *static.Func, proofs map[uint32]Access) {
	if len(f.Blocks) == 0 {
		return
	}
	nodes := make([]node, 0, len(f.Blocks)+len(az.xtargets[f.Entry]))
	idx := map[uint32]int{}
	for _, b := range f.Blocks {
		idx[b.Start] = len(nodes)
		nodes = append(nodes, az.makeNode(f, b, b.Start, false))
	}
	for _, s := range az.xtargets[f.Entry] {
		for _, b := range f.Blocks {
			if s > b.Start && s < b.End {
				nodes = append(nodes, az.makeNode(f, b, s, true))
				break
			}
		}
		if i, ok := idx[s]; ok {
			// The target is itself a leader: degrade that block's in-state.
			nodes[i].virtual = true
		}
	}

	nreal := len(f.Blocks)
	states := make([]state, len(nodes))
	reached := make([]bool, len(nodes))
	updates := make([]int, len(nodes))

	ei, ok := idx[f.Entry]
	if !ok {
		return
	}
	states[ei] = entryState()
	reached[ei] = true
	for i := range nodes {
		if !nodes[i].virtual {
			continue
		}
		if i < nreal {
			// A leader targeted by a cross-function edge: join ⊤ into its
			// normal in-state.
			states[i] = joinState(states[i], topState())
			if !reached[i] {
				states[i] = topState()
			}
		} else {
			states[i] = topState()
		}
		reached[i] = true
	}

	maxIters := az.opts.MaxIters
	if maxIters <= 0 {
		maxIters = 50 + 10*len(nodes)
	}
	converged := false
	for it := 0; it < maxIters; it++ {
		changed := false
		join := func(i int, s state) {
			if i >= nreal {
				return // virtual nodes have a fixed ⊤ in-state
			}
			if !reached[i] {
				states[i] = s
				reached[i] = true
				changed = true
				return
			}
			j := joinState(states[i], s)
			if j == states[i] {
				return
			}
			updates[i]++
			if updates[i] > wideThreshold {
				for r := 1; r < isa.NumRegs; r++ {
					if j[r] != states[i][r] {
						j[r] = aval{}
					}
				}
			}
			if j != states[i] {
				states[i] = j
				changed = true
			}
		}
		for i := range nodes {
			if !reached[i] {
				continue
			}
			out := az.walk(nodes[i], states[i], nil)
			succOut := out
			if nodes[i].call {
				succOut = clobberCall(out)
			}
			for _, s := range nodes[i].succs {
				if j, ok := idx[s]; ok {
					join(j, succOut)
				}
			}
		}
		if !changed {
			converged = true
			break
		}
	}
	if !converged {
		return // safety valve: no proofs from an unconverged function
	}

	put := func(pc uint32, kind ProofKind, obj string) {
		if old, ok := proofs[pc]; ok {
			// A pc reachable both intra-procedurally and via a virtual
			// suffix keeps a proof only if every path agrees.
			if old.Kind != kind || old.Object != obj {
				proofs[pc] = Access{Kind: ProofNone}
			}
			return
		}
		proofs[pc] = Access{Kind: kind, Object: obj}
	}
	for i := range nodes {
		if !reached[i] {
			continue
		}
		az.walk(nodes[i], states[i], func(pc uint32, in isa.Inst, st *state) {
			if !isAccessOp(in.Op) {
				return
			}
			kind, obj := az.classify(f, in, st)
			put(pc, kind, obj)
		})
	}
}

// classify derives the proof obligation for one access under state st.
//
//	global: [base.lo+imm, base.hi+imm+size) ⊆ one eligible object payload
//	stack:  base is sp-relative, range within [current sp, entry sp)
//	mmio:   entire range at or above the device window
//
// Every obligation is evaluated over the full interval, so an access that
// could straddle a redzone boundary on any execution is never proven.
func (az *analyzer) classify(f *static.Func, in isa.Inst, st *state) (ProofKind, string) {
	base := getReg(st, in.Rs1)
	size := int64(isa.AccessSize(in.Op))
	imm := effImm(in)
	switch base.k {
	case kAbs:
		lo, hi := base.lo+imm, base.hi+imm+size
		if lo < 0 || hi > 1<<32 {
			return ProofNone, "" // could wrap: nothing provable
		}
		if lo >= int64(emu.MMIOBase) {
			return ProofMMIO, ""
		}
		if hi > int64(emu.MMIOBase) || lo < int64(emu.NullGuardSize) {
			return ProofNone, ""
		}
		if name, ok := az.containing(lo, hi); ok {
			return ProofGlobal, name
		}
	case kStack:
		if az.poisonFn[f.Entry] {
			return ProofNone, "" // the function poisons inside its own frame
		}
		spd := getReg(st, isa.RegSP)
		if spd.k != kStack {
			return ProofNone, ""
		}
		lo, hi := base.lo+imm, base.hi+imm+size
		if lo >= spd.hi && hi <= 0 {
			return ProofStack, ""
		}
	}
	return ProofNone, ""
}

// containing returns the eligible object whose payload contains [lo, hi).
func (az *analyzer) containing(lo, hi int64) (string, bool) {
	i := sort.Search(len(az.objs), func(i int) bool { return int64(az.objs[i].addr) > lo })
	for j := i - 1; j >= 0; j-- {
		o := &az.objs[j]
		if int64(o.addr)+int64(o.size) <= lo {
			break // sorted, non-overlapping: nothing earlier can reach lo
		}
		if hi <= int64(o.addr)+int64(o.size) && o.eligible {
			return o.name, true
		}
	}
	return "", false
}
