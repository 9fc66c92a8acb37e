package san

// KASAN is the host-side address-sanitizer engine. It consumes allocator
// events (from dummy-library hypercalls under EMBSAN-C, or from Prober-
// discovered interception points under EMBSAN-D) and validates every memory
// access against the unified shadow.
type KASAN struct {
	shadow *Shadow
	chunks map[uint32]*Chunk
	// Quarantine delays the logical reuse of freed chunk metadata so that a
	// use-after-free arriving shortly after a reallocation of the same slot
	// can still name the original free site.
	quarantine []uint32
	quarCap    int
	heapLow    uint32
	heapHigh   uint32
	// touched lists the chunk-table keys written (allocated, freed or
	// evicted) since the last Snapshot or RestoreState, repeats allowed.
	// RestoreState rewinds exactly these keys — the chunk-table analogue of
	// the shadow's dirty blocks. Nothing is recorded before the first
	// Snapshot, when there is no state to rewind to, so a long boot does
	// not grow the list.
	touched []uint32
	snapped bool

	// stacker, when installed (forensic arming), captures the current
	// shadow call stack; allocations and frees stamp their chunk with it so
	// a later report can show full alloc/free backtraces. Off by default:
	// stamping every allocation costs a slice per event.
	stacker func() []uint32
}

// Chunk is one live or quarantined heap object. AllocStack and FreeStack
// are filled only under forensic arming; once stamped they are never
// mutated in place, so snapshot copies may share their backing arrays.
type Chunk struct {
	Addr       uint32
	Size       uint32
	Freed      bool
	AllocPC    uint32
	FreePC     uint32
	AllocStack []uint32
	FreeStack  []uint32
}

// NewKASAN creates the engine on top of a shadow.
func NewKASAN(shadow *Shadow, quarantineCap int) *KASAN {
	if quarantineCap <= 0 {
		quarantineCap = 256
	}
	return &KASAN{
		shadow:  shadow,
		chunks:  make(map[uint32]*Chunk),
		quarCap: quarantineCap,
	}
}

// Shadow exposes the underlying shadow memory.
func (k *KASAN) Shadow() *Shadow { return k.shadow }

// SetStacker installs (or, with nil, removes) the backtrace capture hook
// consulted on every allocation and free.
func (k *KASAN) SetStacker(f func() []uint32) { k.stacker = f }

// ChunkAt returns the chunk whose base address is exactly ptr (live or
// quarantined), or nil.
func (k *KASAN) ChunkAt(ptr uint32) *Chunk { return k.chunks[ptr] }

// NoteHeapRegion widens the engine's notion of where heap objects live, and
// poisons the region as never-allocated.
func (k *KASAN) NoteHeapRegion(start, end uint32) {
	if k.heapLow == 0 || start < k.heapLow {
		k.heapLow = start
	}
	if end > k.heapHigh {
		k.heapHigh = end
	}
	k.shadow.Poison(start, end-start, CodeHeapUninit)
}

// InHeap reports whether addr falls inside a known heap region.
func (k *KASAN) InHeap(addr uint32) bool {
	return addr >= k.heapLow && addr < k.heapHigh && k.heapLow != k.heapHigh
}

// OnAlloc records an allocation of size bytes at ptr.
func (k *KASAN) OnAlloc(ptr, size, pc uint32) {
	if ptr == 0 {
		return // failed allocation
	}
	k.shadow.Unpoison(ptr, size)
	// Poison the tail up to the next granule boundary explicitly (handled by
	// Unpoison's partial encoding) — nothing more to do for the slack: the
	// rest of the heap is already poisoned as uninit/free.
	c := &Chunk{Addr: ptr, Size: size, AllocPC: pc}
	if k.stacker != nil {
		c.AllocStack = k.stacker()
	}
	k.chunks[ptr] = c
	k.touch(ptr)
}

// OnFree records a deallocation of ptr. It returns a report when the free
// itself is a bug (double free / invalid free).
func (k *KASAN) OnFree(ptr, pc uint32, hart int) *Report {
	if ptr == 0 {
		return nil
	}
	c, ok := k.chunks[ptr]
	switch {
	case !ok:
		return &Report{
			Tool: ToolKASAN, Bug: BugInvalidFree, Addr: ptr, PC: pc, Hart: hart,
		}
	case c.Freed:
		return &Report{
			Tool: ToolKASAN, Bug: BugDoubleFree, Addr: ptr, PC: pc, Hart: hart,
			ChunkAddr: c.Addr, ChunkSize: c.Size, AllocPC: c.AllocPC, FreePC: c.FreePC,
			AllocStack: c.AllocStack, FreeStack: c.FreeStack,
		}
	}
	c.Freed = true
	c.FreePC = pc
	k.touch(ptr)
	if k.stacker != nil {
		c.FreeStack = k.stacker()
	}
	k.shadow.Poison(c.Addr, c.Size, CodeHeapFree)
	k.quarantine = append(k.quarantine, ptr)
	if len(k.quarantine) > k.quarCap {
		evict := k.quarantine[0]
		k.quarantine = k.quarantine[1:]
		if ec, ok := k.chunks[evict]; ok && ec.Freed {
			delete(k.chunks, evict)
			k.touch(evict)
		}
	}
	return nil
}

// CheckAccess validates one access; nil means clean.
func (k *KASAN) CheckAccess(addr, size uint32, write bool, pc uint32, hart int) *Report {
	if addr < 0x1000 {
		return &Report{
			Tool: ToolKASAN, Bug: BugNullDeref, Addr: addr, Size: size,
			Write: write, PC: pc, Hart: hart,
		}
	}
	bad, code, ok := k.shadow.Check(addr, size)
	if ok {
		return nil
	}
	r := &Report{
		Tool: ToolKASAN, Addr: bad, Size: size, Write: write, PC: pc, Hart: hart,
	}
	// Heap violations are classified by object context first: shadow codes
	// can be stale in reused slots (a live object's slack keeps the FREE
	// code of its predecessor), but the chunk table knows the truth.
	if code == CodeHeapFree || code == CodeHeapUninit || code == CodeHeapRedzone {
		if c := k.chunkFor(bad); c != nil {
			r.ChunkAddr, r.ChunkSize = c.Addr, c.Size
			r.AllocPC, r.FreePC = c.AllocPC, c.FreePC
			r.AllocStack, r.FreeStack = c.AllocStack, c.FreeStack
			if c.Freed && bad >= c.Addr && bad < c.Addr+c.Size {
				r.Bug = BugUAF
				return r
			}
			if !c.Freed && bad >= c.Addr+c.Size {
				r.Bug = BugOOB
				return r
			}
		}
	}
	switch code {
	case CodeHeapFree:
		r.Bug = BugUAF
	case CodeGlobalRedzone:
		r.Bug = BugGlobalOOB
	case CodeStackRedzone:
		r.Bug = BugStackOOB
	case CodeHeapUninit:
		if c := k.nearestChunk(bad); c != nil {
			r.Bug = BugOOB
		} else {
			r.Bug = BugWild
		}
	case CodeNull:
		r.Bug = BugNullDeref
	default:
		r.Bug = BugOOB
	}
	if c := k.chunkFor(bad); c != nil {
		r.ChunkAddr, r.ChunkSize = c.Addr, c.Size
		r.AllocPC, r.FreePC = c.AllocPC, c.FreePC
		r.AllocStack, r.FreeStack = c.AllocStack, c.FreeStack
	} else if c := k.nearestChunk(bad); c != nil {
		r.ChunkAddr, r.ChunkSize = c.Addr, c.Size
		r.AllocPC, r.FreePC = c.AllocPC, c.FreePC
		r.AllocStack, r.FreeStack = c.AllocStack, c.FreeStack
	}
	return r
}

// touch records a write to the chunk-table key a for the next RestoreState.
func (k *KASAN) touch(a uint32) {
	if k.snapped {
		k.touched = append(k.touched, a)
	}
}

// chunkFor finds the chunk containing addr.
func (k *KASAN) chunkFor(addr uint32) *Chunk {
	// Chunks are small; probe backwards over plausible base addresses at
	// granule steps. Bounded scan keeps this O(1) in practice.
	base := addr &^ (Granularity - 1)
	for i := uint32(0); i <= 512; i += Granularity {
		if c, ok := k.chunks[base-i]; ok {
			if addr >= c.Addr && addr < c.Addr+c.Size+Granularity {
				return c
			}
			return nil
		}
	}
	return nil
}

// nearestChunk finds a chunk whose end is just before addr (OOB overflow
// attribution).
func (k *KASAN) nearestChunk(addr uint32) *Chunk {
	base := addr &^ (Granularity - 1)
	for i := uint32(0); i <= 256; i += Granularity {
		if c, ok := k.chunks[base-i]; ok {
			return c
		}
	}
	return nil
}

// Snapshot captures engine state and starts a new touched-key window: a
// later RestoreState rewinds to the most recent Snapshot, and only to it.
func (k *KASAN) Snapshot() *KASANState {
	k.touched = k.touched[:0]
	k.snapped = true
	st := &KASANState{
		chunks:     make(map[uint32]Chunk, len(k.chunks)),
		quarantine: append([]uint32(nil), k.quarantine...),
		heapLow:    k.heapLow,
		heapHigh:   k.heapHigh,
	}
	for a, c := range k.chunks {
		st.chunks[a] = *c
	}
	return st
}

// RestoreState rewinds engine state to st, which must be the most recent
// Snapshot: only the chunk-table keys touched since then (or since the
// previous RestoreState) are rewound, so the cost follows what one execution
// allocated and freed, not the size of the heap. Restoring an older
// snapshot leaves chunks touched before the latest one unrewound.
func (k *KASAN) RestoreState(st *KASANState) {
	for _, a := range k.touched {
		c, ok := st.chunks[a]
		switch cur := k.chunks[a]; {
		case !ok:
			delete(k.chunks, a)
		case cur != nil:
			*cur = c
		default:
			cc := c
			k.chunks[a] = &cc
		}
	}
	k.touched = k.touched[:0]
	k.quarantine = append(k.quarantine[:0], st.quarantine...)
	k.heapLow, k.heapHigh = st.heapLow, st.heapHigh
}

// KASANState is an opaque engine snapshot.
type KASANState struct {
	chunks     map[uint32]Chunk
	quarantine []uint32
	heapLow    uint32
	heapHigh   uint32
}

// LiveChunks returns the number of live (non-freed) chunks (test hook).
func (k *KASAN) LiveChunks() int {
	n := 0
	for _, c := range k.chunks {
		if !c.Freed {
			n++
		}
	}
	return n
}
