package emu

import (
	"testing"

	"embsan/internal/isa"
	"embsan/internal/kasm"
)

func TestRestoreRevertsPatchedText(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Ready()
	b.Li(rT0, 100)
	b.Li(rA0, 0)
	b.Label("loop")
	b.Call("victim")
	b.ADDI(rT0, rT0, -1)
	b.BNEZ(rT0, "loop")
	exitWith(b)
	b.Func("victim")
	b.ADDI(rA0, rA0, 1)
	b.Ret()
	img := mustLink(t, b, "restorestale")
	m := newMachine(t, img)
	m.ReadyHook = func(m *Machine) { m.Snapshot() }
	if r := m.Run(0); r != StopExit || m.ExitCode() != 100 {
		t.Fatalf("original run: stop=%v exit=%d", r, m.ExitCode())
	}
	victim, _ := img.Lookup("victim")
	patched, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: rA0, Rs1: rA0, Imm: 2}, isa.ArchARM32E)
	if err != nil {
		t.Fatal(err)
	}
	var word [4]byte
	img.Arch.ByteOrder().PutUint32(word[:], patched)
	m.Restore()
	if err := m.WriteBytes(victim.Addr, word[:]); err != nil {
		t.Fatal(err)
	}
	if r := m.Run(0); r != StopExit || m.ExitCode() != 200 {
		t.Fatalf("patched run: stop=%v exit=%d, want 200", r, m.ExitCode())
	}
	m.Restore() // reverts the patch: victim adds 1 again
	if r := m.Run(0); r != StopExit || m.ExitCode() != 100 {
		t.Errorf("restored run: stop=%v exit=%d, want 100 — stale translation of patched text survived Restore",
			r, m.ExitCode())
	}
}

// encodeWord returns inst as the guest-order word its architecture fetches.
func encodeWord(t *testing.T, inst isa.Inst, arch isa.Arch) uint32 {
	t.Helper()
	w, err := isa.Encode(inst, arch)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestAMOPatchRetiresTranslation patches a function with an AMO after a
// chain link into it was installed: the next call through that link must run
// the patched code. The function sits on its own text page, so the calling
// block stays fresh and only the link rule can retire its link.
func TestAMOPatchRetiresTranslation(t *testing.T) {
	patched := encodeWord(t, isa.Inst{Op: isa.OpADDI, Rd: rA0, Rs1: rA0, Imm: 2}, isa.ArchARM32E)
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rA0, 0)
	b.Li(rA2, 3)
	b.Label("loop")
	b.Call("victim") // the second pass installs a link, the third follows it
	b.ADDI(rA2, rA2, -1)
	b.Li(rT1, 1)
	b.BNE(rA2, rT1, "skip")
	b.La(rT0, "victim")
	b.Li(rT1, int32(patched))
	b.AMOSWAPW(rA1, rT0, rT1) // after the second call, victim adds 2
	b.Label("skip")
	b.BNEZ(rA2, "loop")
	exitWith(b)
	for i := 0; i < pageSize/4; i++ {
		b.FENCE()
	}
	b.Func("victim")
	b.ADDI(rA0, rA0, 1)
	b.Ret()
	m := newMachine(t, mustLink(t, b, "amopatch"))
	if r := m.Run(0); r != StopExit || m.ExitCode() != 4 {
		t.Errorf("stop=%v exit=%d, want 4 — the AMO-patched function ran its stale translation",
			r, m.ExitCode())
	}
}

func TestWriteWordRetiresTranslation(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Ready()
	b.Li(rA0, 0)
	b.Call("victim")
	exitWith(b)
	b.Func("victim")
	b.ADDI(rA0, rA0, 1)
	b.Ret()
	img := mustLink(t, b, "writeword")
	m := newMachine(t, img)
	m.ReadyHook = func(m *Machine) { m.Snapshot() }
	if r := m.Run(0); r != StopExit || m.ExitCode() != 1 {
		t.Fatalf("original run: stop=%v exit=%d", r, m.ExitCode())
	}
	victim, _ := img.Lookup("victim")
	m.Restore()
	if err := m.WriteWord(victim.Addr, encodeWord(t, isa.Inst{Op: isa.OpADDI, Rd: rA0, Rs1: rA0, Imm: 2}, img.Arch)); err != nil {
		t.Fatal(err)
	}
	if r := m.Run(0); r != StopExit || m.ExitCode() != 2 {
		t.Errorf("patched run: stop=%v exit=%d, want 2 — WriteWord left a stale translation", r, m.ExitCode())
	}
}

// TestRestoreKeepsTextOnDataStore stores to .data on the page that also
// holds the end of the text. Restore copies that page back, but no text byte
// changed, so the next run must find every block translated and every link
// and jump-cache entry intact.
func TestRestoreKeepsTextOnDataStore(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("counter", 4)
	b.Func("_start")
	b.Ready()
	b.La(rA1, "counter")
	b.Li(rT0, 20)
	b.Label("loop")
	b.LW(rA0, rA1, 0)
	b.ADDI(rA0, rA0, 1)
	b.SW(rA0, rA1, 0)
	b.Call("leaf")
	b.ADDI(rT0, rT0, -1)
	b.BNEZ(rT0, "loop")
	exitWith(b)
	b.Func("leaf")
	b.ADDI(rA2, rA2, 1)
	b.Ret()
	img := mustLink(t, b, "datapage")
	counter, _ := img.Lookup("counter")
	if counter.Addr>>pageShift != (img.TextEnd()-1)>>pageShift {
		t.Fatalf("premise: counter %#x is not on the last text page (text ends %#x)", counter.Addr, img.TextEnd())
	}
	m := newMachine(t, img)
	m.ReadyHook = func(m *Machine) { m.Snapshot() }
	for run := 0; run < 3; run++ {
		before := m.Metrics().Counts()
		if run > 0 {
			m.Restore()
		}
		if r := m.Run(0); r != StopExit || m.ExitCode() != 20 {
			t.Fatalf("run %d: stop=%v exit=%d", run, r, m.ExitCode())
		}
		d := m.Metrics().Counts().Sub(before)
		if run == 2 {
			if d["emu.snapshot.restore_pages"] == 0 {
				t.Fatal("premise: the data store dirtied no page")
			}
			if d["emu.tb.misses"] != 0 || d["emu.dispatch.entries"] != 0 {
				t.Errorf("after a data-only Restore: %d TB misses, %d dispatches, want 0 and 0",
					d["emu.tb.misses"], d["emu.dispatch.entries"])
			}
		}
	}
}
