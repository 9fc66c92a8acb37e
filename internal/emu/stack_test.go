package emu

import (
	"testing"

	"embsan/internal/isa"
	"embsan/internal/kasm"
)

// nestedCallImage builds _start -> f1 -> f2 with proper frames; hooking f2's
// entry observes the point where both call frames are live.
func nestedCallImage(t *testing.T) *kasm.Image {
	t.Helper()
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("stack", 4096)
	b.Func("_start")
	b.La(rSP, "stack")
	b.ADDI(rSP, rSP, 2044)
	b.Call("f1")
	b.Li(rA0, 0)
	exitWith(b)
	b.Func("f1")
	b.Prologue(16)
	b.Call("f2")
	b.Epilogue(16)
	b.Func("f2")
	b.ADDI(rA0, rA0, 1)
	b.Ret()
	return mustLink(t, b, "nested")
}

func TestShadowStackCallChain(t *testing.T) {
	img := nestedCallImage(t)
	m := newMachine(t, img)
	probe, _ := img.Lookup("f2")
	var got []uint32
	m.HookPC(probe.Addr, func(m *Machine, h *Hart) {
		got = m.CallStack(h.ID)
	})
	if r := m.Run(0); r != StopExit {
		t.Fatalf("stop = %v fault=%v", r, m.Fault())
	}
	if len(got) != 2 {
		t.Fatalf("frames inside f2 = %v, want 2", got)
	}
	// Innermost first: f1's call to f2, then _start's call to f1. Each frame
	// is the call-site PC, so frame+4 must land inside the caller.
	f1, _ := img.Lookup("f1")
	f2, _ := img.Lookup("f2")
	if !(got[0] > f1.Addr && got[0] < f2.Addr) {
		t.Errorf("frame 0 = %#x, want call site inside f1 [%#x,%#x)", got[0], f1.Addr, f2.Addr)
	}
	if !(got[1] >= img.Entry && got[1] < f1.Addr) {
		t.Errorf("frame 1 = %#x, want call site inside _start", got[1])
	}
	// After f2 and f1 return, the chain is unwound to the empty stack.
	if d := m.CallStackDepth(0); d != 0 {
		t.Errorf("depth at exit = %d, want 0", d)
	}
}

func TestShadowStackOverflowKeepsInnermost(t *testing.T) {
	// Recurse far past ShadowStackDepth; at the bottom the stack must hold
	// exactly ShadowStackDepth frames, all of them the recursive call site.
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("stack", 1<<15)
	b.Func("_start")
	b.La(rSP, "stack")
	b.Li(rT0, 1<<14)
	b.ADD(rSP, rSP, rT0)
	b.Li(rA0, 200) // depth
	b.Call("rec")
	b.Li(rA0, 0)
	exitWith(b)
	b.Func("rec")
	b.BEQZ(rA0, "bottom")
	b.Prologue(16)
	b.ADDI(rA0, rA0, -1)
	b.Call("rec")
	b.Epilogue(16)
	b.Label("bottom")
	b.Ret()
	img := mustLink(t, b, "deep")
	m := newMachine(t, img)
	rec, _ := img.Lookup("rec")
	var atBottom []uint32
	// The recursion bottoms out when a0 reaches zero at rec's entry; capture
	// the stack there, with all 200 calls outstanding.
	m.HookPC(rec.Addr, func(m *Machine, h *Hart) {
		if atBottom == nil && h.Regs[rA0] == 0 {
			atBottom = m.CallStack(h.ID)
		}
	})
	if r := m.Run(0); r != StopExit {
		t.Fatalf("stop = %v fault=%v", r, m.Fault())
	}
	if len(atBottom) != ShadowStackDepth {
		t.Fatalf("depth at bottom = %d, want %d", len(atBottom), ShadowStackDepth)
	}
	// Every retained frame is the same recursive call site inside rec.
	for i, pc := range atBottom {
		if pc != atBottom[0] || pc <= rec.Addr {
			t.Fatalf("frame %d = %#x, want uniform recursive site past %#x", i, pc, rec.Addr)
		}
	}
	// The overflow dropped outer frames, so the returns above the retained
	// window find no matching frame and leave the stack alone — but nothing
	// may underflow or crash, and execution completes normally.
}

func TestShadowStackSnapshotRestore(t *testing.T) {
	img := nestedCallImage(t)
	m := newMachine(t, img)
	probe, _ := img.Lookup("f2")
	var snapped []uint32
	m.HookPC(probe.Addr, func(m *Machine, h *Hart) {
		if snapped == nil {
			snapped = m.CallStack(h.ID)
			m.Snapshot()
		}
	})
	if r := m.Run(0); r != StopExit {
		t.Fatalf("stop = %v", r)
	}
	if len(snapped) != 2 {
		t.Fatalf("frames at snapshot = %d, want 2", len(snapped))
	}
	// The run unwound the stack to empty; Restore must bring the two live
	// frames back exactly, however many rewinds happen.
	for round := 0; round < 3; round++ {
		m.Restore()
		got := m.CallStack(0)
		if len(got) != len(snapped) {
			t.Fatalf("round %d: depth after restore = %d, want %d", round, len(got), len(snapped))
		}
		for i := range got {
			if got[i] != snapped[i] {
				t.Fatalf("round %d: frame %d = %#x, want %#x", round, i, got[i], snapped[i])
			}
		}
		if r := m.Run(0); r != StopExit {
			t.Fatalf("round %d: stop = %v", round, r)
		}
	}
}

func TestShadowStackTailJumpTolerated(t *testing.T) {
	// An indirect jump that is neither a call nor a matching return (a jump
	// table through T1) must leave the recorded frames intact.
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("stack", 4096)
	b.Func("_start")
	b.La(rSP, "stack")
	b.ADDI(rSP, rSP, 2044)
	b.Call("outer")
	b.Li(rA0, 0)
	exitWith(b)
	b.Func("outer")
	b.Prologue(16)
	b.La(rT1, "case0")
	b.JALR(isa.RegZero, rT1, 0) // dispatch, not a return
	b.Func("case0")
	b.ADDI(rA0, rA0, 1)
	b.Epilogue(16) // outer's frame is still open; return through it
	img := mustLink(t, b, "tailjmp")
	m := newMachine(t, img)
	inside, _ := img.Lookup("case0")
	depth := -1
	m.HookPC(inside.Addr, func(m *Machine, h *Hart) {
		depth = m.CallStackDepth(h.ID)
	})
	if r := m.Run(0); r != StopExit {
		t.Fatalf("stop = %v fault=%v", r, m.Fault())
	}
	if depth != 1 {
		t.Errorf("depth after jump-table dispatch = %d, want 1 (outer frame intact)", depth)
	}
	if d := m.CallStackDepth(0); d != 0 {
		t.Errorf("depth at exit = %d, want 0", d)
	}
}
