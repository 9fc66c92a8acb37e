package forensics

import (
	"reflect"
	"testing"

	"embsan/internal/obs"
)

// ev builds an event tersely for fixtures.
func ev(icnt uint64, kind obs.Kind, pc, addr, arg uint32, hart uint8) obs.Event {
	return obs.Event{ICnt: icnt, PC: pc, Addr: addr, Arg: arg, Kind: kind, Hart: hart}
}

// frame builds an EvFrame child for a parent at icnt with parent PC.
func frame(icnt uint64, parentPC, framePC uint32, idx uint32) obs.Event {
	return obs.Event{ICnt: icnt, PC: parentPC, Addr: framePC, Arg: idx, Kind: obs.EvFrame}
}

func TestFoldAttachesFrames(t *testing.T) {
	events := []obs.Event{
		ev(100, obs.EvAllocExit, 0x80, 0x2000, 32, 0),
		frame(100, 0x80, 0x140, 0),
		frame(100, 0x80, 0x104, 1),
		ev(200, obs.EvFree, 0x90, 0x2000, 0, 0),
		frame(200, 0x90, 0x150, 0),
	}
	recs := Fold(events)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if want := []uint32{0x140, 0x104}; !reflect.DeepEqual(recs[0].Stack, want) {
		t.Errorf("alloc stack = %#x, want %#x", recs[0].Stack, want)
	}
	if want := []uint32{0x150}; !reflect.DeepEqual(recs[1].Stack, want) {
		t.Errorf("free stack = %#x, want %#x", recs[1].Stack, want)
	}
}

func TestFoldDropsOrphanFrames(t *testing.T) {
	// A windowed cut can leave frames with no parent (stream starts with
	// them) or with a mismatched parent (timestamp or index gap). None may
	// attach.
	events := []obs.Event{
		frame(50, 0x80, 0x140, 0), // no parent at all
		ev(100, obs.EvAllocExit, 0x80, 0x2000, 32, 0),
		frame(101, 0x80, 0x140, 0), // wrong icnt
		frame(100, 0x80, 0x150, 1), // index gap (stack is empty, wants 0)
	}
	recs := Fold(events)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].Stack != nil {
		t.Errorf("orphan frames attached: %#x", recs[0].Stack)
	}
}

func TestFoldFlattenRoundTrip(t *testing.T) {
	events := []obs.Event{
		ev(100, obs.EvAllocExit, 0x80, 0x2000, 32, 0),
		frame(100, 0x80, 0x140, 0),
		frame(100, 0x80, 0x104, 1),
		ev(150, obs.EvMemProbe, 0x200, 0x2004, 4|1<<8, 1),
		ev(200, obs.EvReport, 0x300, 0x2004, 3, 1),
		// Frames carry the parent's hart (the runtime emits them on the
		// reporting hart), which Flatten reproduces.
		{ICnt: 200, PC: 0x300, Addr: 0x2f0, Arg: 0, Kind: obs.EvFrame, Hart: 1},
	}
	recs := Fold(events)
	back := Flatten(recs)
	if !reflect.DeepEqual(back, events) {
		t.Errorf("Flatten(Fold(events)) != events:\n got %v\nwant %v", back, events)
	}
	if again := Fold(back); !reflect.DeepEqual(again, recs) {
		t.Errorf("Fold(Flatten(recs)) != recs")
	}
}

func TestObjectTimeline(t *testing.T) {
	const base, size = 0x2000, 32
	recs := Fold([]obs.Event{
		ev(10, obs.EvAllocExit, 0x80, base, size, 0),
		frame(10, 0x80, 0x140, 0),
		ev(12, obs.EvUnpoison, 0, base, size, 0),
		ev(20, obs.EvAllocExit, 0x80, 0x3000, 16, 0), // different object: ignored
		ev(30, obs.EvFree, 0x90, base, 0, 1),
		ev(31, obs.EvPoison, 0xFB, base, size, 1), // PC = poison code, not a PC
		ev(32, obs.EvQuarantine, 0x90, base, size, 1),
		ev(40, obs.EvAllocExit, 0x84, base, 24, 0), // slot reuse
	})
	tl := ObjectTimeline(recs, base, size)
	var got []string
	for _, te := range tl {
		got = append(got, te.Event)
	}
	want := []string{"alloc", "unpoison", "free", "poison", "quarantine", "realloc"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timeline events = %v, want %v", got, want)
	}
	if tl[0].Stack == nil || tl[0].Stack[0] != 0x140 {
		t.Errorf("alloc entry lost its stack: %#x", tl[0].Stack)
	}
	if tl[3].PC != 0 {
		t.Errorf("poison entry PC = %#x, want 0 (poison codes are not PCs)", tl[3].PC)
	}
	if tl[5].Size != 24 {
		t.Errorf("realloc size = %d, want 24", tl[5].Size)
	}
}

func TestLastWriters(t *testing.T) {
	const addr = 0x2004
	var events []obs.Event
	// Ten writes to the address, interleaved (in stream order — the trace
	// clock is monotonic) with reads and unrelated writes; only the last 8
	// writes at or before icnt 100 qualify.
	for i := uint64(1); i <= 5; i++ {
		events = append(events, ev(i*10, obs.EvMemProbe, 0x200, addr, 4|1<<8, 0))
	}
	events = append(events,
		ev(55, obs.EvMemProbe, 0x210, addr, 4, 0),        // read: ignored
		ev(56, obs.EvMemProbe, 0x220, 0x9000, 4|1<<8, 0), // elsewhere: ignored
		ev(57, obs.EvSanck, 0x230, addr-2, 4|1<<8, 1),    // overlapping sanck write
	)
	for i := uint64(6); i <= 10; i++ {
		events = append(events, ev(i*10, obs.EvMemProbe, 0x200, addr, 4|1<<8, 0))
	}
	events = append(events,
		ev(200, obs.EvMemProbe, 0x240, addr, 4|1<<8, 0), // after until: ignored
	)
	recs := Fold(events)
	ws := LastWriters(recs, addr, 4, 100, 8)
	if len(ws) != 8 {
		t.Fatalf("got %d writers, want 8", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].ICnt < ws[i-1].ICnt {
			t.Fatalf("writers not chronological: %d after %d", ws[i].ICnt, ws[i-1].ICnt)
		}
	}
	// The overlapping EvSanck write at icnt 57 must be in the window.
	found := false
	for _, w := range ws {
		if w.ICnt == 57 && w.Hart == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("overlapping sanck write missing from %v", ws)
	}
	if last := ws[len(ws)-1]; last.ICnt != 100 {
		t.Errorf("last writer at icnt %d, want 100", last.ICnt)
	}
}
