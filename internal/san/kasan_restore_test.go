package san

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// Geometry of the KASAN restore harness: kasanSlots chunk keys, kasanStride
// bytes apart, and a quarantine small enough that a handful of frees evicts.
const (
	kasanHeap    = 0x2000
	kasanSlots   = 12
	kasanStride  = 0x40
	kasanQuarCap = 3
)

// kasanRestoreCases tallies the situations one op sequence exercised, so the
// randomized test can prove it reached every case the restore must handle.
type kasanRestoreCases struct {
	restores    int
	evictSnap   int // quarantine eviction deleted a chunk the snapshot holds
	reallocSnap int // allocation at a key the snapshot holds
	doubleFree  int
	invalidFree int
	// reallocEvicted: after a RestoreState, a key freed and evicted since
	// is allocated again, which appends into arena slots the restore freed.
	reallocEvicted int
}

// runKASANRestore drives one engine through data, two bytes per operation
// (the op and slot byte, then a size/pc byte):
//
//	0, 1  allocate a slot       3  free a slot's interior (invalid free)
//	2     free a slot           4  RestoreState + shadow Restore
//	5     Snapshot + shadow Snapshot
//
// After every restore the chunk table (key -> Chunk value), the quarantine
// and the shadow must equal what the most recent snapshot captured; the
// shadow is compared against a full copy taken beside its Snapshot.
func runKASANRestore(t testing.TB, data []byte) kasanRestoreCases {
	sh := NewShadow(1 << 16)
	k := NewKASAN(sh, kasanQuarCap)
	k.NoteHeapRegion(kasanHeap, kasanHeap+kasanSlots*kasanStride)
	var (
		cases     kasanRestoreCases
		st        *KASANState
		shFull    []byte // a full copy of the shadow taken at its Snapshot
		wantChunk map[uint32]Chunk
		wantQuar  []uint32
		restored  bool                // a RestoreState ran since the last Snapshot
		evicted   = map[uint32]bool{} // keys evicted since the last restore or snapshot
	)
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%6, uint32(data[i+1])
		addr := kasanHeap + uint32(data[i]/6%kasanSlots)*kasanStride
		switch op {
		case 0, 1:
			if _, ok := wantChunk[addr]; ok {
				cases.reallocSnap++
			}
			if restored && evicted[addr] {
				cases.reallocEvicted++
			}
			k.OnAlloc(addr, 1+arg%(kasanStride-Granularity), 0x100+arg)
		case 2:
			var evict uint32
			if len(k.quarantine) == kasanQuarCap {
				evict = k.quarantine[0]
			}
			r := k.OnFree(addr, 0x200+arg, 0)
			switch {
			case r == nil:
				if _, held := wantChunk[evict]; held && k.ChunkAt(evict) == nil {
					cases.evictSnap++
				}
				if evict != 0 && k.ChunkAt(evict) == nil {
					evicted[evict] = true
				}
			case r.Bug == BugDoubleFree:
				cases.doubleFree++
			case r.Bug == BugInvalidFree:
				cases.invalidFree++
			}
		case 3:
			if r := k.OnFree(addr+Granularity, 0x300+arg, 0); r == nil || r.Bug != BugInvalidFree {
				t.Fatalf("op %d: interior free of %#x gave %+v, want invalid free", i/2, addr+Granularity, r)
			}
			cases.invalidFree++
		case 4:
			if st == nil {
				continue
			}
			sh.Restore()
			k.RestoreState(st)
			cases.restores++
			restored, evicted = true, map[uint32]bool{}
			if got := chunkValues(k); !reflect.DeepEqual(got, wantChunk) {
				t.Fatalf("op %d: chunk table after restore\n got %v\nwant %v", i/2, got, wantChunk)
			}
			if !slices.Equal(k.quarantine, wantQuar) {
				t.Fatalf("op %d: quarantine after restore = %v, want %v", i/2, k.quarantine, wantQuar)
			}
			if !bytes.Equal(sh.Bytes(), shFull) {
				t.Fatalf("op %d: shadow differs from its snapshot after restore", i/2)
			}
		case 5:
			shFull = bytes.Clone(sh.Bytes())
			sh.Snapshot()
			st = k.Snapshot()
			wantChunk = chunkValues(k)
			wantQuar = append([]uint32(nil), k.quarantine...)
			restored, evicted = false, map[uint32]bool{}
		}
	}
	runtime.KeepAlive(sh) // the loop compared its bytes
	return cases
}

// chunkValues copies the chunk table out by value.
func chunkValues(k *KASAN) map[uint32]Chunk {
	out := make(map[uint32]Chunk, len(k.chunks))
	for a, i := range k.chunks {
		out[a] = k.arena[i]
	}
	return out
}

// kasanOp encodes one harness operation on a slot.
func kasanOp(op, slot int, arg byte) []byte {
	return []byte{byte(slot*6 + op), arg}
}

// TestKASANRestoreDifferential runs random allocate/free sequences with
// several restore cycles per snapshot and re-snapshots in between; every
// restore must reproduce the snapshot exactly, as a full rebuild would.
func TestKASANRestoreDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var total kasanRestoreCases
	for seq := 0; seq < 300; seq++ {
		var data []byte
		for n := 0; n < 160; n++ {
			op := rng.Intn(16)
			switch {
			case op < 6:
				op = 0 // allocate
			case op < 12:
				op = 2 // free
			case op < 13:
				op = 3
			case op < 15:
				op = 4
			default:
				op = 5
			}
			data = append(data, kasanOp(op, rng.Intn(kasanSlots), byte(rng.Intn(256)))...)
		}
		c := runKASANRestore(t, data)
		total.restores += c.restores
		total.evictSnap += c.evictSnap
		total.reallocSnap += c.reallocSnap
		total.doubleFree += c.doubleFree
		total.invalidFree += c.invalidFree
		total.reallocEvicted += c.reallocEvicted
	}
	t.Logf("cases: %+v", total)
	if total.restores == 0 || total.evictSnap == 0 || total.reallocSnap == 0 ||
		total.doubleFree == 0 || total.invalidFree == 0 || total.reallocEvicted == 0 {
		t.Errorf("random sequences missed a restore case: %+v", total)
	}
}

// kasanRestoreSeed is a hand-written sequence that hits every case once:
// chunks quarantined before the snapshot are evicted after it, a snapshot
// key is reallocated (after a restore, once it was evicted), a chunk is
// freed twice and a non-chunk is freed.
func kasanRestoreSeed() []byte {
	var d []byte
	for s := 0; s < 4; s++ {
		d = append(d, kasanOp(0, s, byte(8*s+8))...)
	}
	d = append(d, kasanOp(2, 0, 1)...)
	d = append(d, kasanOp(2, 1, 2)...)
	d = append(d, kasanOp(5, 0, 0)...) // snapshot: 0, 1 quarantined; 2, 3 live
	for cycle := 0; cycle < 3; cycle++ {
		d = append(d, kasanOp(2, 2, 3)...) // evicts nothing yet
		d = append(d, kasanOp(2, 3, 4)...) // evicts slot 0
		d = append(d, kasanOp(0, 0, 5)...) // realloc a snapshot key
		d = append(d, kasanOp(2, 0, 6)...) // evicts slot 1
		d = append(d, kasanOp(2, 0, 7)...) // double free
		d = append(d, kasanOp(2, 9, 8)...) // free of a never-allocated slot
		d = append(d, kasanOp(3, 2, 9)...) // interior free
		d = append(d, kasanOp(4, 0, 0)...)
	}
	return d
}

func TestKASANRestoreSeedCases(t *testing.T) {
	c := runKASANRestore(t, kasanRestoreSeed())
	want := kasanRestoreCases{restores: 3, evictSnap: 6, reallocSnap: 3, doubleFree: 3, invalidFree: 6, reallocEvicted: 2}
	if c != want {
		t.Errorf("seed sequence cases = %+v, want %+v", c, want)
	}
}

// FuzzKASANRestore drives the same operation sequences from fuzzer input.
func FuzzKASANRestore(f *testing.F) {
	f.Add(kasanRestoreSeed())
	f.Add([]byte{5, 0, 0, 8, 2, 1, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runKASANRestore(t, data)
	})
}

// TestKASANArenaCompacts runs long allocate/free sequences without a restore,
// before and after a Snapshot: the arena stays bounded by its live chunks,
// every key keeps naming its own chunk, and a restore still rewinds exactly.
func TestKASANArenaCompacts(t *testing.T) {
	const slots = 64
	k := NewKASAN(NewShadow(1<<16), 4)
	k.NoteHeapRegion(kasanHeap, kasanHeap+slots*kasanStride)
	churn := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for s := uint32(0); s < slots; s++ {
				a := kasanHeap + s*kasanStride
				k.OnAlloc(a, 16, uint32(r))
				k.OnFree(a, 0x200, 0)
			}
		}
		if bound := k.snapLen + 2*compactDead + slots; len(k.arena) > bound {
			t.Fatalf("arena holds %d entries, bound %d", len(k.arena), bound)
		}
		for a, i := range k.chunks {
			if k.arena[i].Addr != a {
				t.Fatalf("key %#x names the chunk at %#x", a, k.arena[i].Addr)
			}
		}
	}
	churn(40)
	k.OnAlloc(kasanHeap, 8, 1)
	want := chunkValues(k)
	st := k.Snapshot()
	for cycle := 0; cycle < 3; cycle++ {
		churn(40)
		k.RestoreState(st)
		if got := chunkValues(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: chunk table after restore differs from the snapshot", cycle)
		}
	}
}
