package san

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestShadowPoisonCheck(t *testing.T) {
	s := NewShadow(1 << 16)
	s.Poison(0x100, 0x100, CodeHeapUninit)

	if _, _, ok := s.Check(0x80, 8); !ok {
		t.Error("unpoisoned region flagged")
	}
	if bad, code, ok := s.Check(0x100, 4); ok || bad != 0x100 || code != CodeHeapUninit {
		t.Errorf("poisoned region not flagged: bad=%#x code=%#x ok=%v", bad, code, ok)
	}

	// Allocate 20 bytes inside: [0x100, 0x114).
	s.Unpoison(0x100, 20)
	if _, _, ok := s.Check(0x100, 20); !ok {
		t.Error("allocated object flagged")
	}
	if _, _, ok := s.Check(0x110, 4); !ok {
		t.Error("tail bytes 0x110..0x113 must be valid")
	}
	// Byte 20 (offset 0x114) is the granule's invalid tail.
	if bad, _, ok := s.Check(0x100, 21); ok || bad != 0x114 {
		t.Errorf("off-by-one not flagged: bad=%#x ok=%v", bad, ok)
	}
	if _, _, ok := s.Check(0x114, 1); ok {
		t.Error("slack byte not flagged")
	}
}

func TestShadowPartialLeadingGranule(t *testing.T) {
	s := NewShadow(1 << 16)
	// Valid everywhere; poison starting mid-granule.
	s.Poison(0x104, 12, CodeHeapRedzone)
	if _, _, ok := s.Check(0x100, 4); !ok {
		t.Error("bytes before mid-granule poison must stay valid")
	}
	if _, _, ok := s.Check(0x104, 1); ok {
		t.Error("mid-granule poison start not flagged")
	}
	if _, _, ok := s.Check(0x108, 8); ok {
		t.Error("following poisoned granule not flagged")
	}
}

func TestShadowRepoison(t *testing.T) {
	s := NewShadow(1 << 16)
	s.Poison(0x200, 64, CodeHeapUninit)
	s.Unpoison(0x200, 32)
	s.Poison(0x200, 32, CodeHeapFree)
	bad, code, ok := s.Check(0x200, 1)
	if ok || code != CodeHeapFree || bad != 0x200 {
		t.Errorf("freed object: bad=%#x code=%#x ok=%v", bad, code, ok)
	}
}

func TestShadowCodeNames(t *testing.T) {
	for _, c := range []byte{CodeStackRedzone, CodeGlobalRedzone, CodeHeapRedzone, CodeHeapFree, CodeHeapUninit, CodeNull} {
		name := CodeName(c)
		got, ok := CodeByName(name)
		if !ok || got != c {
			t.Errorf("CodeByName(CodeName(%#x)) = %#x, %v", c, got, ok)
		}
		if !IsPoison(c) {
			t.Errorf("IsPoison(%#x) = false", c)
		}
	}
	if IsPoison(0) || IsPoison(7) {
		t.Error("valid shadow bytes classified as poison")
	}
}

// Property: after poisoning a region and unpoisoning a sub-range, every
// access fully inside the sub-range is clean and every access crossing its
// end is flagged.
func TestQuickShadowAllocSemantics(t *testing.T) {
	f := func(rawBase uint16, rawSize uint8) bool {
		base := 0x1000 + uint32(rawBase&0x0FFF)&^7 // granule-aligned base
		size := uint32(rawSize%200) + 1
		s := NewShadow(1 << 16)
		s.Poison(0x1000, 0x2000, CodeHeapUninit)
		s.Unpoison(base, size)
		if _, _, ok := s.Check(base, size); !ok {
			return false
		}
		if _, _, ok := s.Check(base, size+1); ok {
			return false
		}
		_, _, ok := s.Check(base+size, 1)
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCheckpointSparse: every Restore reproduces a full copy of the shadow
// taken at its Snapshot, whichever regions were written since, and rewinds
// only the 512-byte blocks (4 KiB guest pages) those writes touched.
func TestCheckpointSparse(t *testing.T) {
	const chunk = 1 << 15 // guest bytes; the shadow covers eight
	for _, tc := range []struct {
		name   string
		mutate func(s *Shadow)
		pages  int // guest pages the mutation writes the shadow of
	}{
		{"nothing", func(s *Shadow) {}, 0},
		{"zero chunk poisoned", func(s *Shadow) { s.Poison(0x100, 64, CodeHeapFree) }, 1},
		{"kept chunk unpoisoned", func(s *Shadow) { s.Unpoison(2*chunk, chunk) }, 8},
		{"kept chunk poisoned", func(s *Shadow) { s.Poison(2*chunk+0x1000, 24, CodeHeapFree) }, 1},
		{"window across chunks", func(s *Shadow) { s.Poison(chunk-64, 3*chunk, CodeHeapRedzone) }, 25},
		{"last chunk", func(s *Shadow) { s.Poison(8*chunk-16, 16, CodeNull) }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewShadow(8 * chunk)
			s.Poison(2*chunk+64, 0x2000, CodeHeapRedzone)
			s.Snapshot()
			full := bytes.Clone(s.Bytes())
			for round := 0; round < 2; round++ {
				tc.mutate(s)
				if n := s.Restore(); n != tc.pages {
					t.Errorf("round %d: restore rewound %d blocks, want %d", round, n, tc.pages)
				}
				if !bytes.Equal(s.Bytes(), full) {
					t.Fatalf("round %d: shadow differs from its snapshot after restore", round)
				}
			}
		})
	}
}

// TestShadowCloneRestore: Restore brings back what Snapshot captured.
func TestShadowCloneRestore(t *testing.T) {
	s := NewShadow(1 << 12)
	s.Poison(0x100, 64, CodeHeapFree)
	s.Snapshot()
	s.Unpoison(0x100, 64)
	if _, _, ok := s.Check(0x100, 8); !ok {
		t.Fatal("unpoison failed")
	}
	s.Restore()
	if _, _, ok := s.Check(0x100, 8); ok {
		t.Error("restore did not bring the poison back")
	}
}

func TestKASANEngineBasics(t *testing.T) {
	sh := NewShadow(1 << 16)
	k := NewKASAN(sh, 8)
	k.NoteHeapRegion(0x2000, 0x4000)

	k.OnAlloc(0x2000, 24, 0x111)
	if r := k.CheckAccess(0x2000, 24, true, 0x500, 0); r != nil {
		t.Errorf("in-bounds access flagged: %+v", r)
	}
	r := k.CheckAccess(0x2000+24, 1, true, 0x500, 0)
	if r == nil || r.Bug != BugOOB {
		t.Fatalf("OOB not flagged correctly: %+v", r)
	}
	if r.ChunkAddr != 0x2000 || r.ChunkSize != 24 || r.AllocPC != 0x111 {
		t.Errorf("OOB report lacks chunk context: %+v", r)
	}

	if r := k.OnFree(0x2000, 0x222, 0); r != nil {
		t.Fatalf("valid free reported: %+v", r)
	}
	r = k.CheckAccess(0x2008, 4, false, 0x501, 0)
	if r == nil || r.Bug != BugUAF || r.FreePC != 0x222 {
		t.Fatalf("UAF not flagged: %+v", r)
	}

	r = k.OnFree(0x2000, 0x333, 0)
	if r == nil || r.Bug != BugDoubleFree {
		t.Fatalf("double free not flagged: %+v", r)
	}
	r = k.OnFree(0x2F00, 0x444, 0)
	if r == nil || r.Bug != BugInvalidFree {
		t.Fatalf("invalid free not flagged: %+v", r)
	}

	if r := k.CheckAccess(0x10, 4, false, 0x502, 0); r == nil || r.Bug != BugNullDeref {
		t.Fatalf("null deref not flagged: %+v", r)
	}
}

func TestKASANSnapshotRestore(t *testing.T) {
	sh := NewShadow(1 << 16)
	k := NewKASAN(sh, 8)
	k.NoteHeapRegion(0x2000, 0x4000)
	k.OnAlloc(0x2000, 16, 1)
	st := k.Snapshot()
	sh.Snapshot()

	k.OnFree(0x2000, 2, 0)
	k.OnAlloc(0x2100, 32, 3)
	k.RestoreState(st)
	sh.Restore()

	if k.LiveChunks() != 1 {
		t.Errorf("live chunks after restore = %d", k.LiveChunks())
	}
	if r := k.CheckAccess(0x2000, 16, false, 9, 0); r != nil {
		t.Errorf("restored alloc flagged: %+v", r)
	}
	if r := k.CheckAccess(0x2100, 8, false, 9, 0); r == nil {
		t.Error("rolled-back alloc still accessible")
	}

	// Eviction: a chunk already quarantined at the snapshot is evicted by
	// frees after it; restore must bring it back with its free site, so a
	// use-after-free on it is still attributed.
	sh = NewShadow(1 << 16)
	k = NewKASAN(sh, 1)
	k.NoteHeapRegion(0x2000, 0x4000)
	k.OnAlloc(0x2000, 16, 1)
	k.OnAlloc(0x2100, 16, 2)
	k.OnFree(0x2000, 3, 0)
	sh.Snapshot()
	st = k.Snapshot()
	for cycle := 0; cycle < 3; cycle++ {
		k.OnFree(0x2100, 4, 0)
		if k.ChunkAt(0x2000) != nil {
			t.Fatal("quarantined chunk not evicted")
		}
		sh.Restore()
		k.RestoreState(st)
		c := k.ChunkAt(0x2000)
		if c == nil || !c.Freed || c.FreePC != 3 {
			t.Fatalf("cycle %d: evicted chunk after restore = %+v", cycle, c)
		}
		if c := k.ChunkAt(0x2100); c == nil || c.Freed {
			t.Fatalf("cycle %d: live chunk after restore = %+v", cycle, c)
		}
		if r := k.CheckAccess(0x2004, 4, false, 9, 0); r == nil || r.Bug != BugUAF || r.FreePC != 3 {
			t.Fatalf("cycle %d: UAF on restored chunk = %+v", cycle, r)
		}
	}
}

func TestKCSANRaceDetection(t *testing.T) {
	mem := map[uint32]uint32{}
	k := NewKCSAN(KCSANConfig{Slots: 2, SampleInterval: 1, Delay: 100},
		func(addr, size uint32) (uint32, bool) { return mem[addr], true })

	// Hart 0 samples a write -> watchpoint armed, stall requested.
	stall, rep := k.OnAccess(0x100, 4, true, 0x10, 0, false)
	if stall == 0 || rep != nil {
		t.Fatalf("expected stall: stall=%d rep=%v", stall, rep)
	}
	if k.ActiveWatchpoints() != 1 {
		t.Fatal("no watchpoint armed")
	}
	// Hart 1 writes the same word during the window -> race.
	_, rep = k.OnAccess(0x100, 4, true, 0x20, 1, false)
	if rep == nil || rep.Bug != BugRace || rep.OtherPC != 0x10 || rep.OtherHart != 0 {
		t.Fatalf("race not reported: %+v", rep)
	}
	// Hart 0 re-delivers through the spin window until finalisation.
	rep = redeliver(k, 0x100, 4, true, 0x10, 0)
	if rep == nil || rep.Bug != BugRace || rep.OtherPC != 0x20 {
		t.Fatalf("owner-side race not reported: %+v", rep)
	}
	if k.ActiveWatchpoints() != 0 {
		t.Error("watchpoint not consumed")
	}
}

// redeliver repeats an access until the engine stops requesting stalls,
// returning the final report (the emulator does this naturally by
// re-executing the stalled instruction).
func redeliver(k *KCSAN, addr, size uint32, write bool, pc uint32, hart int) *Report {
	for i := 0; i < 1000; i++ {
		stall, rep := k.OnAccess(addr, size, write, pc, hart, false)
		if stall == 0 {
			return rep
		}
	}
	return nil
}

func TestKCSANReadReadIsNotARace(t *testing.T) {
	k := NewKCSAN(KCSANConfig{Slots: 1, SampleInterval: 1, Delay: 100},
		func(addr, size uint32) (uint32, bool) { return 0, true })
	if stall, _ := k.OnAccess(0x100, 4, false, 0x10, 0, false); stall == 0 {
		t.Fatal("read not sampled")
	}
	_, rep := k.OnAccess(0x100, 4, false, 0x20, 1, false)
	if rep != nil {
		t.Fatalf("read/read flagged as race: %+v", rep)
	}
	if rep := redeliver(k, 0x100, 4, false, 0x10, 0); rep != nil {
		t.Fatalf("owner read/read flagged: %+v", rep)
	}
}

func TestKCSANValueChangeDetection(t *testing.T) {
	val := uint32(1)
	k := NewKCSAN(KCSANConfig{Slots: 1, SampleInterval: 1, Delay: 100},
		func(addr, size uint32) (uint32, bool) { return val, true })
	if stall, _ := k.OnAccess(0x200, 4, false, 0x10, 0, false); stall == 0 {
		t.Fatal("not sampled")
	}
	val = 2 // an uninstrumented writer changed the value during the window
	rep := redeliver(k, 0x200, 4, false, 0x10, 0)
	if rep == nil || rep.Bug != BugRace || rep.OtherHart != -1 {
		t.Fatalf("value-change race not reported: %+v", rep)
	}
}

func TestKCSANNonOverlappingAccess(t *testing.T) {
	k := NewKCSAN(KCSANConfig{Slots: 1, SampleInterval: 1, Delay: 100},
		func(addr, size uint32) (uint32, bool) { return 0, true })
	k.OnAccess(0x100, 4, true, 0x10, 0, false)
	_, rep := k.OnAccess(0x104, 4, true, 0x20, 1, false) // adjacent, no overlap
	if rep != nil {
		t.Fatalf("non-overlapping access flagged: %+v", rep)
	}
	_, rep = k.OnAccess(0x102, 4, true, 0x20, 1, false) // overlapping
	if rep == nil {
		t.Fatal("overlapping access not flagged")
	}
}

func TestReportSignatureAndFormat(t *testing.T) {
	r := &Report{
		Tool: ToolKASAN, Bug: BugUAF, Addr: 0x2000, Size: 4, Write: false,
		PC: 0x1234, Location: "ieee80211_scan_rx+0x24",
		ChunkAddr: 0x2000, ChunkSize: 64, AllocPC: 0x1100, FreePC: 0x1200,
	}
	if r.Signature() != "KASAN:use-after-free:ieee80211_scan_rx" {
		t.Errorf("signature = %q", r.Signature())
	}
	txt := r.Format(nil)
	for _, want := range []string{"BUG: KASAN: use-after-free", "Read of size 4", "Allocated at", "Freed at"} {
		if !contains(txt, want) {
			t.Errorf("report missing %q:\n%s", want, txt)
		}
	}
	race := &Report{Tool: ToolKCSAN, Bug: BugRace, Addr: 0x300, Size: 4, Write: true,
		PC: 1, OtherPC: 2, OtherHart: 1, OtherWrite: true, Location: "f"}
	if !contains(race.Format(nil), "race at addr") {
		t.Error("race report format wrong")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestBugTypeShortClasses(t *testing.T) {
	cases := map[BugType]string{
		BugOOB: "OOB Access", BugGlobalOOB: "OOB Access", BugWild: "OOB Access",
		BugUAF: "UAF", BugDoubleFree: "Double Free", BugRace: "Race",
		BugNullDeref: "Null Deref",
	}
	for b, want := range cases {
		if b.Short() != want {
			t.Errorf("%v.Short() = %q, want %q", b, b.Short(), want)
		}
	}
}
