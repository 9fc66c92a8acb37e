package san

// KCSAN is the host-side concurrency-sanitizer engine. It implements the
// soft-watchpoint scheme of the kernel's KCSAN: a sampled access arms a
// watchpoint and stalls its hart; any overlapping access from another hart
// during the stall window is a data race (unless both are reads). A value
// change across the window catches races with uninstrumented writers.
type KCSAN struct {
	slots    []watchpoint
	interval uint64 // mean sampling period per unit of site weight
	delay    uint64 // stall length in global instructions
	counter  uint64 // fallback virtual clock when no machine clock is wired
	read     func(addr, size uint32) (uint32, bool)
	clock    func() uint64    // retired-instruction clock (nil: internal counter)
	seed     func() uint64    // live campaign seed (nil: 0)
	weights  map[uint32]uint8 // static site weights, absent = 1 (Runtime.SetSitePolicy)
	evals    uint64           // accesses that reached the arming decision
	armed    uint64           // watchpoints actually armed
}

type watchpoint struct {
	active   bool
	addr     uint32
	size     uint32
	write    bool
	pc       uint32
	hart     int
	origVal  uint32
	spins    int // remaining re-delivery rounds of the delay window
	observed bool
	obsPC    uint32
	obsHart  int
	obsWrite bool
}

// spinChunk is the stall granted per re-delivery round. The owner hart
// re-executes its access once per chunk, so the delay window costs real
// execution work — modelling the busy udelay of the reference KCSAN.
const spinChunk = 50

// KCSANConfig tunes the engine.
type KCSANConfig struct {
	Slots          int    // concurrent watchpoints (default 4)
	SampleInterval uint64 // arm a watchpoint every Nth access (default 61)
	Delay          uint64 // stall window in instructions (default 1200)
}

// NewKCSAN creates the engine. read peeks guest memory for value-change
// detection.
func NewKCSAN(cfg KCSANConfig, read func(addr, size uint32) (uint32, bool)) *KCSAN {
	if cfg.Slots <= 0 {
		cfg.Slots = 4
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = 61
	}
	if cfg.Delay == 0 {
		cfg.Delay = 1200
	}
	return &KCSAN{
		slots:    make([]watchpoint, cfg.Slots),
		interval: cfg.SampleInterval,
		delay:    cfg.Delay,
		read:     read,
	}
}

// SetGuidance wires the deterministic sampling sources: clock is the
// machine's retired-instruction counter and seed reads the live campaign
// seed. With these and the static site weights wired, every arming
// decision is a pure function of (seed, virtual clock, site): it does not
// depend on how many accesses were sampled before this one, so skipping a
// proven-safe site cannot shift any other site's decisions — the property
// the elision and worker-count byte-identity oracles rely on.
func (k *KCSAN) SetGuidance(clock, seed func() uint64) {
	k.clock = clock
	k.seed = seed
}

// sampleMix is the splitmix64 finalizer over (campaign seed, virtual
// clock, site). A shared modulus counter is deliberately avoided: a loop
// whose access stride divides the sample interval would park the counter
// on the same residues forever and systematically shadow a site.
func sampleMix(seed, tick uint64, pc uint32) uint64 {
	z := seed + 0x9E3779B97F4A7C15*tick + 0xBF58476D1CE4E5B9*uint64(pc)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// OnAccess processes one access. It returns a stall request (in
// instructions; 0 = none) and a race report (nil = none). The caller must
// re-deliver the access after a stall, at which point the engine finalises
// its own watchpoint. Atomic (marked) accesses never arm watchpoints and do
// not conflict with other marked accesses — the kernel's data-race rule.
func (k *KCSAN) OnAccess(addr, size uint32, write bool, pc uint32, hart int, atomic bool) (stall uint64, report *Report) {
	// 1) Our own armed watchpoint at this address? Either keep spinning
	// through the delay window or finalise.
	for i := range k.slots {
		w := &k.slots[i]
		if w.active && w.hart == hart && w.addr == addr && w.pc == pc {
			if w.spins > 0 {
				w.spins--
				return spinChunk, nil
			}
			w.active = false
			if w.observed {
				return 0, &Report{
					Tool: ToolKCSAN, Bug: BugRace, Addr: addr, Size: size,
					Write: write, PC: pc, Hart: hart,
					OtherPC: w.obsPC, OtherHart: w.obsHart, OtherWrite: w.obsWrite,
				}
			}
			// Value-change detection: a concurrent uninstrumented writer.
			if cur, ok := k.read(addr, size); ok && cur != w.origVal && !write {
				return 0, &Report{
					Tool: ToolKCSAN, Bug: BugRace, Addr: addr, Size: size,
					Write: write, PC: pc, Hart: hart,
					OtherPC: 0, OtherHart: -1, OtherWrite: true,
				}
			}
			return 0, nil
		}
	}

	// 2) Does this access collide with another hart's armed watchpoint?
	for i := range k.slots {
		w := &k.slots[i]
		if !w.active || w.hart == hart {
			continue
		}
		if overlap(addr, size, w.addr, w.size) && (w.write || write) {
			w.observed = true
			w.obsPC = pc
			w.obsHart = hart
			w.obsWrite = write
			// Report from the observer side immediately; the owner will
			// also produce a report at finalisation, which dedup folds.
			return 0, &Report{
				Tool: ToolKCSAN, Bug: BugRace, Addr: addr, Size: size,
				Write: write, PC: pc, Hart: hart,
				OtherPC: w.pc, OtherHart: w.hart, OtherWrite: w.write,
			}
		}
	}

	// 3) Sampling: arm a watchpoint on a pseudo-random subset of eligible
	// accesses, hashed from (seed, clock, site) so decisions at one site
	// never perturb another's. A site of weight w arms with probability
	// w/interval; weight 0 is a statically proven race-free site.
	if atomic {
		return 0, nil
	}
	weight := uint64(1)
	if w, ok := k.weights[pc]; ok {
		weight = uint64(w)
	}
	if weight == 0 {
		return 0, nil
	}
	k.evals++
	var tick uint64
	if k.clock != nil {
		tick = k.clock()
	} else {
		k.counter++
		tick = k.counter
	}
	var seed uint64
	if k.seed != nil {
		seed = k.seed()
	}
	if sampleMix(seed, tick, pc)%k.interval >= weight {
		return 0, nil
	}
	for i := range k.slots {
		w := &k.slots[i]
		if w.active {
			continue
		}
		orig, _ := k.read(addr, size)
		*w = watchpoint{
			active: true, addr: addr, size: size, write: write,
			pc: pc, hart: hart, origVal: orig,
			spins: int(k.delay / spinChunk),
		}
		k.armed++
		return spinChunk, nil
	}
	return 0, nil
}

func overlap(a1, s1, a2, s2 uint32) bool {
	return a1 < a2+s2 && a2 < a1+s1
}

// Reset clears all watchpoints and the sampling counter.
func (k *KCSAN) Reset() {
	for i := range k.slots {
		k.slots[i] = watchpoint{}
	}
	k.counter = 0
}

// Sampling returns the cumulative arming accounting: how many eligible
// accesses reached the sampling decision and how many armed a watchpoint.
// The counts survive Reset (they accumulate across a campaign's
// executions) — the timeline sampler's "KCSAN arming rate" metric reads
// them.
func (k *KCSAN) Sampling() (evals, armed uint64) {
	return k.evals, k.armed
}

// ActiveWatchpoints returns the number of armed watchpoints (test hook).
func (k *KCSAN) ActiveWatchpoints() int {
	n := 0
	for i := range k.slots {
		if k.slots[i].active {
			n++
		}
	}
	return n
}
