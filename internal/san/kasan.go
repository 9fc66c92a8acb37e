package san

import (
	"maps"
	"slices"
)

// KASAN is the host-side address-sanitizer engine. It consumes allocator
// events (from dummy-library hypercalls under EMBSAN-C, or from Prober-
// discovered interception points under EMBSAN-D) and validates every memory
// access against the unified shadow.
type KASAN struct {
	shadow *Shadow
	// chunks maps a chunk's base address to its index in arena. An
	// allocation appends to the arena, so the exec path allocates no chunk
	// objects; the entries no key maps to any more are dead until compact
	// drops them. RestoreState truncates the arena back to its length at
	// the last Snapshot.
	chunks  map[uint32]int32
	arena   []Chunk
	snapLen int // arena length at the last Snapshot; entries below it are rewound, never compacted
	dead    int // arena entries at or past snapLen that no key maps
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
// A *Chunk from the engine is valid until its next allocation or restore.
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
		chunks:  make(map[uint32]int32),
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
func (k *KASAN) ChunkAt(ptr uint32) *Chunk {
	if i, ok := k.chunks[ptr]; ok {
		return &k.arena[i]
	}
	return nil
}

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
	c := Chunk{Addr: ptr, Size: size, AllocPC: pc}
	if k.stacker != nil {
		c.AllocStack = k.stacker()
	}
	if i, ok := k.chunks[ptr]; ok && int(i) >= k.snapLen {
		k.dead++ // the chunk this one replaces
	}
	if k.dead >= compactDead && 2*k.dead >= len(k.arena)-k.snapLen {
		k.compact(k.snapLen)
	}
	k.chunks[ptr] = int32(len(k.arena))
	k.arena = append(k.arena, c)
	k.touch(ptr)
}

// compactDead is how many dead arena entries an allocation tolerates before
// it compacts: only a long run without a restore gets there.
const compactDead = 256

// compact renumbers the arena entries from index base on so that only the
// chunks the table maps remain, in address order, and returns the arena's
// new length. Entries below base keep their indices.
func (k *KASAN) compact(base int) int {
	var keys []uint32
	for a, i := range k.chunks {
		if int(i) >= base {
			keys = append(keys, a)
		}
	}
	slices.Sort(keys)
	arena := append([]Chunk(nil), k.arena[:base]...)
	for _, a := range keys {
		arena = append(arena, k.arena[k.chunks[a]])
		k.chunks[a] = int32(len(arena) - 1)
	}
	k.arena, k.dead = arena, 0
	return len(arena)
}

// OnFree records a deallocation of ptr. It returns a report when the free
// itself is a bug (double free / invalid free).
func (k *KASAN) OnFree(ptr, pc uint32, hart int) *Report {
	if ptr == 0 {
		return nil
	}
	i, ok := k.chunks[ptr]
	var c *Chunk
	if ok {
		c = &k.arena[i]
	}
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
		// Shift in place: the backing array never slides, so appends stop
		// growing it once it holds quarCap+1 entries.
		evict := k.quarantine[0]
		k.quarantine = k.quarantine[:copy(k.quarantine, k.quarantine[1:])]
		if ei, ok := k.chunks[evict]; ok && k.arena[ei].Freed {
			delete(k.chunks, evict)
			if int(ei) >= k.snapLen {
				k.dead++
			}
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
	for off := uint32(0); off <= 512; off += Granularity {
		if i, ok := k.chunks[base-off]; ok {
			c := &k.arena[i]
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
	for off := uint32(0); off <= 256; off += Granularity {
		if i, ok := k.chunks[base-off]; ok {
			return &k.arena[i]
		}
	}
	return nil
}

// Snapshot captures engine state and starts a new touched-key window: a
// later RestoreState rewinds to the most recent Snapshot, and only to it.
// It compacts the arena, whose entries then all belong to the snapshot.
func (k *KASAN) Snapshot() *KASANState {
	k.touched = k.touched[:0]
	k.snapped = true
	k.snapLen = k.compact(0)
	return &KASANState{
		chunks:     maps.Clone(k.chunks),
		arena:      slices.Clone(k.arena),
		quarantine: append([]uint32(nil), k.quarantine...),
		heapLow:    k.heapLow,
		heapHigh:   k.heapHigh,
	}
}

// RestoreState rewinds engine state to st, which must be the most recent
// Snapshot. The arena is truncated to its length then, which drops every
// chunk allocated since, and only the chunk-table keys touched since then
// (or since the previous RestoreState) are rewound, so the cost follows
// what one execution allocated and freed, not the size of the heap. An
// arena entry below the truncation point changes only through its own key,
// so rewinding the touched keys rewinds those entries too.
func (k *KASAN) RestoreState(st *KASANState) {
	k.arena = k.arena[:len(st.arena)]
	for _, a := range k.touched {
		if i, ok := st.chunks[a]; ok {
			k.chunks[a] = i
			k.arena[i] = st.arena[i]
		} else {
			delete(k.chunks, a)
		}
	}
	k.touched = k.touched[:0]
	k.dead = 0
	k.quarantine = append(k.quarantine[:0], st.quarantine...)
	k.heapLow, k.heapHigh = st.heapLow, st.heapHigh
}

// KASANState is an opaque engine snapshot.
type KASANState struct {
	chunks     map[uint32]int32
	arena      []Chunk
	quarantine []uint32
	heapLow    uint32
	heapHigh   uint32
}

// LiveChunks returns the number of live (non-freed) chunks (test hook).
func (k *KASAN) LiveChunks() int {
	n := 0
	for _, i := range k.chunks {
		if !k.arena[i].Freed {
			n++
		}
	}
	return n
}
