// Package fuzz is the coverage-guided fuzzing engine EMBSAN assists. It
// has two frontends matching the paper's tooling: a Syzkaller-style typed
// syscall-program generator for Embedded Linux firmware, and a
// Tardis-style byte-input mutator for RTOS firmware, both driven by the
// OS-agnostic translation-block coverage the emulator exposes.
package fuzz

import (
	"fmt"
	"math/rand"

	"embsan/internal/core"
	"embsan/internal/emu"
	"embsan/internal/guest/gabi"
	"embsan/internal/obs"
	"embsan/internal/obs/timeline"
	"embsan/internal/san"
)

// Frontend selects the input model.
type Frontend uint8

const (
	FrontendSyscall Frontend = iota
	FrontendBytes
)

// Config configures a campaign.
type Config struct {
	Instance *core.Instance // booted, snapshotted, StopOnReport recommended
	Frontend Frontend
	Syscalls int // syscall-frontend: size of the guest syscall table
	Seeds    [][]byte
	Seed     int64 // RNG seed (deterministic campaigns)

	MaxExecs   int    // execution budget
	ExecBudget uint64 // instruction budget per execution (default 2M)
	MaxRecords int    // syscall frontend: max records per program (default 8)
	MaxInput   int    // bytes frontend: max input length (default 128)

	// ReachableLeaders lists the statically reachable basic-block leader
	// PCs (static.Analysis.ReachableLeaders). When set, the campaign counts
	// how many of them execute and Stats.Coverage reports that count as a
	// fraction of the static upper bound. Nil means unknown.
	ReachableLeaders []uint32

	// ProvenAccesses / ReachableAccesses carry the static safety prover's
	// result (absint): how many statically reachable memory accesses were
	// proven safe, out of how many. Both zero means unknown. The campaign
	// only echoes them into Stats — they are computed once per image, not
	// per execution.
	ProvenAccesses    int
	ReachableAccesses int

	// Timeline, when set, samples the campaign-progress metric vector on
	// the cumulative retired-instruction clock (Stats.Insts). The sampler
	// is caller-owned: the campaign driver Resets it per job and copies
	// samples out afterwards. Nil costs one pointer check per execution.
	Timeline *timeline.Sampler
}

// Crash is one deduplicated finding.
type Crash struct {
	Signature string
	Report    *san.Report // nil for raw guest faults
	Fault     *emu.Fault
	Input     []byte
	Minimized []byte
	Execs     int // executions consumed when first found
}

// Stats summarises a campaign.
type Stats struct {
	Execs       int
	CorpusSize  int
	CoverBlocks int
	Insts       uint64

	// CoverLeaders counts the Config.ReachableLeaders that executed;
	// ReachableBlocks echoes the bound's size. Raw CoverBlocks is not
	// comparable to the static bound — dynamic TB entry points outnumber
	// static leaders when quantum slicing restarts blocks mid-stream — so
	// the coverage fraction counts leaders only.
	CoverLeaders    int
	ReachableBlocks int

	// ProvenAccesses / ReachableAccesses echo Config: statically proven-safe
	// memory accesses out of the statically reachable accesses.
	ProvenAccesses    int
	ReachableAccesses int
}

// Coverage returns covered static block leaders as a fraction of the
// statically reachable upper bound, clamped to [0, 1]; ok is false when
// the bound is unknown.
func (s Stats) Coverage() (frac float64, ok bool) {
	if s.ReachableBlocks <= 0 {
		return 0, false
	}
	f := float64(s.CoverLeaders) / float64(s.ReachableBlocks)
	if f > 1 {
		f = 1
	}
	return f, true
}

// ProofDensity returns statically proven-safe accesses as a fraction of the
// statically reachable accesses, clamped to [0, 1]; ok is false when the
// prover did not run on this image.
func (s Stats) ProofDensity() (frac float64, ok bool) {
	if s.ReachableAccesses <= 0 {
		return 0, false
	}
	f := float64(s.ProvenAccesses) / float64(s.ReachableAccesses)
	if f > 1 {
		f = 1
	}
	return f, true
}

// Result is the campaign outcome.
type Result struct {
	Crashes []*Crash
	Corpus  [][]byte
	Stats   Stats
	// Metrics is the campaign's obs registry snapshot (fuzz.* instruments).
	Metrics *obs.Registry
}

// execInstBounds buckets per-execution guest instruction cost
// (fuzz.exec.insts): 1k, 8k, 64k, 512k, 4M.
var execInstBounds = []uint64{1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22}

// Fuzzer runs one campaign against one instance.
type Fuzzer struct {
	cfg        Config
	rng        *rand.Rand
	newCov     int
	leaders    map[uint32]struct{} // static leader set from cfg.ReachableLeaders
	covLeaders int
	corpus     [][]byte
	seen       map[string]bool

	// cover is the set of covered TB entry PCs in the image text: one bit
	// per instruction word from coverBase, so the per-block hook is one bit
	// test and the set costs text/32 bytes. An entry PC outside the text
	// (code the guest placed elsewhere) goes to coverOut. Both live on the
	// Fuzzer so a second Run keeps counting only blocks new to the campaign.
	cover      []uint64
	coverBase  uint32
	coverOut   map[uint32]struct{}
	coverCount int

	// Comparison-operand dictionary (byte frontend): byte-sized operands of
	// failed equality branches, in discovery order so dictionary picks stay
	// deterministic. This is how magic command bytes guarded by `if (b ==
	// MAGIC)` parsers are found without brute-forcing 1/256 odds.
	dict     []byte
	dictSeen [256]bool

	// buf and prog are reused by every generated or mutated input:
	// nextInput returns buf, valid until its next call, and the corpus
	// copies an input only when it admits it.
	buf  []byte
	prog gabi.Prog

	// OnCrash, if set, fires for each new deduplicated crash.
	OnCrash func(*Crash)

	metrics   *obs.Registry
	mExecs    *obs.Counter
	mCrashes  *obs.Counter
	mCorpus   *obs.Gauge
	mExecCost *obs.Histogram
}

// New creates a fuzzer.
func New(cfg Config) (*Fuzzer, error) {
	if cfg.Instance == nil {
		return nil, fmt.Errorf("fuzz: no instance")
	}
	if cfg.Frontend == FrontendSyscall && cfg.Syscalls <= 0 {
		return nil, fmt.Errorf("fuzz: syscall frontend needs the table size")
	}
	if cfg.ExecBudget == 0 {
		cfg.ExecBudget = 2_000_000
	}
	if cfg.MaxRecords == 0 {
		cfg.MaxRecords = 8
	}
	if cfg.MaxInput == 0 {
		cfg.MaxInput = 128
	}
	img := cfg.Instance.Image()
	f := &Fuzzer{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		cover:     make([]uint64, ((len(img.Text)+3)/4+63)/64),
		coverBase: img.Base &^ 3,
		seen:      make(map[string]bool),
		metrics:   obs.NewRegistry(),
	}
	f.mExecs = f.metrics.Counter("fuzz.execs")
	f.mCrashes = f.metrics.Counter("fuzz.crashes.unique")
	f.mCorpus = f.metrics.Gauge("fuzz.corpus.size")
	f.mExecCost = f.metrics.Histogram("fuzz.exec.insts", execInstBounds)
	if len(cfg.ReachableLeaders) > 0 {
		f.leaders = make(map[uint32]struct{}, len(cfg.ReachableLeaders))
		for _, pc := range cfg.ReachableLeaders {
			f.leaders[pc] = struct{}{}
		}
	}
	return f, nil
}

// Run executes the campaign. The coverage hook is installed only for the
// duration of the run, so a pooled machine handed from campaign to
// campaign never feeds coverage into a stale fuzzer.
func (f *Fuzzer) Run() *Result {
	res := &Result{}
	inst := f.cfg.Instance

	prevHook := inst.Machine.SetCoverageHook(f.coverPC)
	defer inst.Machine.SetCoverageHook(prevHook)

	if f.cfg.Frontend == FrontendBytes {
		// Redqueen-style comparison feedback: operands of failed equality
		// checks seed the mutation dictionary.
		prevCmp := inst.Machine.CmpHook
		inst.Machine.CmpHook = func(a, b uint32) {
			f.harvest(a)
			f.harvest(b)
		}
		defer func() { inst.Machine.CmpHook = prevCmp }()
	}

	execs := 0

	// Timeline sampling: the metric vector is filled from campaign state
	// only — counters are deltas against the machine's state at Run start,
	// so a pooled machine's history from earlier campaigns never leaks in.
	// The instruments are looked up once here; a sample only reads them.
	tl := f.cfg.Timeline
	var sampleFill func(*timeline.Sample)
	if tl != nil {
		reg := inst.Machine.Metrics()
		since := func(name string) func() uint64 {
			c := reg.Counter(name)
			base := c.Value()
			return func() uint64 { return c.Value() - base }
		}
		trans, sanck, probes := since("emu.translate.insts"), since("emu.sanck.traps"), since("emu.mem.probes")
		pages, chain, disp := since("emu.snapshot.restore_pages"), since("emu.chain.hits"), since("emu.dispatch.entries")
		var baseEvals, baseArmed uint64
		if inst.Runtime != nil && inst.Runtime.KCSANEngine() != nil {
			baseEvals, baseArmed = inst.Runtime.KCSANEngine().Sampling()
		}
		sampleFill = func(s *timeline.Sample) {
			s.Execs = uint64(execs)
			s.CoverBlocks = uint64(f.coverCount)
			s.CorpusSize = uint64(len(f.corpus))
			s.Found = uint64(len(res.Crashes))
			s.Translate = trans()
			s.Execute = res.Stats.Insts
			s.Sanitize = sanck() + probes()
			s.Snapshot = pages()
			s.ChainHits = chain()
			s.Dispatches = disp()
			if inst.Runtime != nil && inst.Runtime.KCSANEngine() != nil {
				evals, armed := inst.Runtime.KCSANEngine().Sampling()
				s.KCSANEvals = evals - baseEvals
				s.KCSANArmed = armed - baseArmed
			}
		}
	}

	exec1 := func(input []byte) core.ExecResult {
		inst.Restore()
		f.newCov = 0
		execs++
		f.mExecs.Inc()
		r := inst.Exec(input, f.cfg.ExecBudget)
		res.Stats.Insts += r.Insts
		f.mExecCost.Observe(r.Insts)
		if tl != nil {
			tl.Advance(res.Stats.Insts, sampleFill)
		}
		return r
	}

	record := func(input []byte, r core.ExecResult) {
		sig := crashSignature(r)
		if sig == "" || f.seen[sig] {
			return
		}
		f.seen[sig] = true
		f.mCrashes.Inc()
		c := &Crash{
			Signature: sig,
			Fault:     r.Fault,
			Input:     append([]byte(nil), input...),
			Execs:     execs,
		}
		if len(r.Reports) > 0 {
			c.Report = r.Reports[0]
		}
		isRace := c.Report != nil && c.Report.Bug == san.BugRace
		if !isRace {
			c.Minimized = f.minimize(input, sig, exec1)
		} else {
			c.Minimized = c.Input
		}
		res.Crashes = append(res.Crashes, c)
		if f.OnCrash != nil {
			f.OnCrash(c)
		}
	}

	// Seed the corpus.
	for _, s := range f.cfg.Seeds {
		if execs >= f.cfg.MaxExecs {
			break
		}
		r := exec1(s)
		if r.Crashed() {
			record(s, r)
			continue
		}
		f.corpus = append(f.corpus, append([]byte(nil), s...))
	}

	for execs < f.cfg.MaxExecs {
		input := f.nextInput()
		r := exec1(input)
		if r.Crashed() {
			record(input, r)
			continue
		}
		if f.newCov > 0 && r.Done {
			f.corpus = append(f.corpus, append([]byte(nil), input...))
		}
	}

	if tl != nil {
		// Terminal sample: every campaign ends with its final state on
		// record, so short campaigns below one interval still produce a
		// timeline.
		tl.Flush(res.Stats.Insts, sampleFill)
	}

	res.Corpus = f.corpus
	res.Stats.Execs = execs
	res.Stats.CorpusSize = len(f.corpus)
	f.mCorpus.Set(int64(len(f.corpus)))
	res.Metrics = f.metrics
	res.Stats.CoverBlocks = f.coverCount
	res.Stats.CoverLeaders = f.covLeaders
	res.Stats.ReachableBlocks = len(f.cfg.ReachableLeaders)
	res.Stats.ProvenAccesses = f.cfg.ProvenAccesses
	res.Stats.ReachableAccesses = f.cfg.ReachableAccesses
	return res
}

// coverPC is the coverage hook: it marks a translation-block entry PC as
// covered and counts it if it is new to the campaign. The set is never
// cleared while the hook is installed, so the machine may report each block
// once per installation.
func (f *Fuzzer) coverPC(pc uint32) {
	if off := (pc - f.coverBase) >> 2; off>>6 < uint32(len(f.cover)) {
		w, bit := off>>6, uint64(1)<<(off&63)
		if f.cover[w]&bit != 0 {
			return
		}
		f.cover[w] |= bit
	} else {
		if _, ok := f.coverOut[pc]; ok {
			return
		}
		if f.coverOut == nil {
			f.coverOut = make(map[uint32]struct{})
		}
		f.coverOut[pc] = struct{}{}
	}
	f.coverCount++
	f.newCov++
	if _, ok := f.leaders[pc]; ok {
		f.covLeaders++
	}
}

// harvest records a byte-sized comparison operand into the dictionary.
func (f *Fuzzer) harvest(v uint32) {
	if v <= 0xFF && !f.dictSeen[v] {
		f.dictSeen[v] = true
		f.dict = append(f.dict, byte(v))
	}
}

// nextInput picks generation or mutation. The input it returns is the
// fuzzer's reused buffer: it is valid until the next call.
func (f *Fuzzer) nextInput() []byte {
	if f.cfg.Frontend == FrontendSyscall {
		// Syzkaller-style: mostly generate typed programs, sometimes mutate
		// a corpus program.
		if len(f.corpus) > 0 && f.rng.Intn(100) < 40 {
			return f.mutate(f.pick())
		}
		return f.genEncoded()
	}
	// Tardis-style: mutate the corpus (seeds anchor the format); generate
	// random bytes occasionally to escape local minima.
	if len(f.corpus) > 0 && f.rng.Intn(100) < 85 {
		return f.mutate(f.pick())
	}
	return f.genBytes()
}

func (f *Fuzzer) pick() []byte {
	return f.corpus[f.rng.Intn(len(f.corpus))]
}

// genEncoded generates a fresh typed syscall program and encodes it into
// buf.
func (f *Fuzzer) genEncoded() []byte {
	n := 1 + f.rng.Intn(f.cfg.MaxRecords)
	f.prog = f.prog[:0]
	for i := 0; i < n; i++ {
		f.prog = append(f.prog, f.genRecord())
	}
	f.buf = f.prog.Append(f.buf[:0])
	return f.buf
}

var argDictionary = []uint32{0, 1, 2, 4, 8, 16, 64, 127, 128, 255, 256, 4096, 0xFFFFFFFF}

func (f *Fuzzer) genRecord() gabi.Record {
	r := gabi.Record{
		NR:    uint32(f.rng.Intn(f.cfg.Syscalls)),
		NArgs: uint32(1 + f.rng.Intn(gabi.MaxArgs)),
	}
	for i := range r.Args {
		switch f.rng.Intn(10) {
		case 0, 1:
			r.Args[i] = argDictionary[f.rng.Intn(len(argDictionary))]
		case 2:
			r.Args[i] = f.rng.Uint32()
		default:
			r.Args[i] = uint32(f.rng.Intn(256))
		}
	}
	return r
}

func (f *Fuzzer) genBytes() []byte {
	n := 4 + f.rng.Intn(f.cfg.MaxInput-4)
	f.buf = f.buf[:0]
	for i := 0; i < n; i++ {
		f.buf = append(f.buf, byte(f.rng.Intn(256)))
	}
	return f.buf
}

// mutate applies one to three byte- or record-level mutations to a copy of
// in, a corpus entry, made in buf.
func (f *Fuzzer) mutate(in []byte) []byte {
	out := append(f.buf[:0], in...)
	// Header bytes steer parsers; bias mutation positions toward them.
	pos := func() int {
		if f.rng.Intn(2) == 0 && len(out) > 8 {
			return f.rng.Intn(8)
		}
		return f.rng.Intn(len(out))
	}
	// The byte frontend also plants harvested comparison operands; the
	// syscall frontend keeps the original six cases (and rng stream).
	cases := 6
	if f.cfg.Frontend == FrontendBytes {
		cases = 7
	}
	for n := 1 + f.rng.Intn(3); n > 0 && len(out) > 0; n-- {
		switch f.rng.Intn(cases) {
		case 0: // flip a bit
			out[pos()] ^= 1 << f.rng.Intn(8)
		case 1: // set a random byte
			out[pos()] = byte(f.rng.Intn(256))
		case 2: // set a byte from the small-value dictionary
			out[pos()] = byte(argDictionary[f.rng.Intn(len(argDictionary))])
		case 3: // duplicate a tail chunk (grow)
			if len(out) < f.cfg.MaxInput {
				i := f.rng.Intn(len(out))
				out = append(out, out[i:]...)
				if len(out) > f.cfg.MaxInput {
					out = out[:f.cfg.MaxInput]
				}
			}
		case 4: // truncate
			if len(out) > 4 {
				out = out[:4+f.rng.Intn(len(out)-4)]
			}
		case 5: // splice with another corpus entry
			if len(f.corpus) > 0 {
				other := f.pick()
				i := f.rng.Intn(len(out))
				out = append(out[:i], other[min(i, len(other)):]...)
			}
		case 6: // plant a harvested comparison operand
			if len(f.dict) > 0 {
				out[pos()] = f.dict[f.rng.Intn(len(f.dict))]
			}
		}
	}
	f.buf = out // keep what the mutations grew
	if f.cfg.Frontend == FrontendSyscall {
		// Keep whole records.
		out = out[:len(out)/gabi.RecordSize*gabi.RecordSize]
		if len(out) == 0 {
			return f.genEncoded()
		}
	}
	return out
}

// minimize shrinks a crashing input while preserving its signature.
func (f *Fuzzer) minimize(input []byte, sig string, exec1 func([]byte) core.ExecResult) []byte {
	cur := append([]byte(nil), input...)
	crashesSame := func(candidate []byte) bool {
		r := exec1(candidate)
		return crashSignature(r) == sig
	}
	if f.cfg.Frontend == FrontendSyscall {
		// Drop records one at a time.
		for changed := true; changed; {
			changed = false
			n := len(cur) / gabi.RecordSize
			for i := 0; i < n && n > 1; i++ {
				cand := make([]byte, 0, len(cur)-gabi.RecordSize)
				cand = append(cand, cur[:i*gabi.RecordSize]...)
				cand = append(cand, cur[(i+1)*gabi.RecordSize:]...)
				if crashesSame(cand) {
					cur = cand
					n--
					changed = true
					i--
				}
			}
		}
		return cur
	}
	// Byte frontend: binary-search the shortest crashing prefix.
	lo, hi := 1, len(cur)
	for lo < hi {
		mid := (lo + hi) / 2
		if crashesSame(cur[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if crashesSame(cur[:hi]) {
		return append([]byte(nil), cur[:hi]...)
	}
	return cur
}

// crashSignature derives the deduplication key for an execution outcome.
func crashSignature(r core.ExecResult) string {
	if len(r.Reports) > 0 {
		return r.Reports[0].Signature()
	}
	if r.Fault != nil {
		return fmt.Sprintf("fault:%s:%#x", r.Fault.Kind, r.Fault.PC)
	}
	return ""
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
