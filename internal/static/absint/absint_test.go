package absint_test

import (
	"testing"

	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/static"
	"embsan/internal/static/absint"
)

// buildProofMini builds a firmware exercising every proof obligation: global
// hits and redzone straddles, own-frame spills and below-frame escapes,
// device-window stores, pointer chases, and a counted loop whose index must
// widen at the loop head.
func buildProofMini(t *testing.T, mode kasm.SanitizeMode) *kasm.Image {
	t.Helper()
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E, Sanitize: mode})

	b.Func("_start")
	b.Li(isa.RegSP, 0x8000)
	b.Call("globals")
	b.Call("spill")
	b.Call("mmio")
	b.Call("chase")
	b.Call("loop")
	b.Ready()
	b.HALT()

	b.Func("globals")
	b.La(isa.RegT0, "counter")
	b.LW(isa.RegT1, isa.RegT0, 0) // inside the payload: provable
	b.ADDI(isa.RegT1, isa.RegT1, 1)
	b.SW(isa.RegT1, isa.RegT0, 0) // inside the payload: provable
	b.LW(isa.RegA4, isa.RegT0, 2) // [2,6) straddles the payload end: never
	b.Ret()

	b.Func("spill")
	b.ADDI(isa.RegSP, isa.RegSP, -16)
	b.SW(isa.RegRA, isa.RegSP, 0) // own live frame: provable
	b.SW(isa.RegA0, isa.RegSP, 4)
	b.LW(isa.RegRA, isa.RegSP, 0)
	b.LW(isa.RegA0, isa.RegSP, -4) // below sp: outside the live frame
	b.ADDI(isa.RegSP, isa.RegSP, 16)
	b.Ret()

	b.Func("mmio")
	b.Li(isa.RegT0, -0x10000000) // 0xF0000000: the device window
	b.SW(isa.RegZero, isa.RegT0, 0)
	b.Ret()

	b.Func("chase")
	b.La(isa.RegT0, "ptr")
	b.LW(isa.RegT1, isa.RegT0, 0) // the global itself: provable
	b.LW(isa.RegA4, isa.RegT1, 0) // loaded pointer: must-check
	b.Ret()

	b.Func("loop")
	b.La(isa.RegT0, "arr")
	b.Li(isa.RegT1, 0)
	b.Li(isa.RegA3, 64)
	b.Label("loop_head")
	b.ADD(isa.RegA0, isa.RegT0, isa.RegT1)
	b.LW(isa.RegA1, isa.RegA0, 0) // index widens at the loop head: must-check
	b.LW(isa.RegA2, isa.RegT0, 0) // loop-invariant base: provable
	b.ADDI(isa.RegT1, isa.RegT1, 4)
	b.BLTU(isa.RegT1, isa.RegA3, "loop_head")
	b.Ret()

	b.Global("counter", 4)
	b.Global("arr", 64)
	b.GlobalRaw("ptr", 4)

	img, err := b.Link("absint-mini")
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return img
}

func analyzeMini(t *testing.T, img *kasm.Image) *absint.Result {
	t.Helper()
	an, err := static.Analyze(img)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return absint.Analyze(an, absint.Options{})
}

// funcAccesses returns the classified accesses inside the named function in
// program order, skipping the SANCK instrumentation.
func funcAccesses(t *testing.T, img *kasm.Image, res *absint.Result, name string) []absint.Access {
	t.Helper()
	sym, ok := img.Lookup(name)
	if !ok {
		t.Fatalf("symbol %s missing", name)
	}
	var out []absint.Access
	for _, a := range res.Accesses {
		if a.PC >= sym.Addr && a.PC < sym.Addr+sym.Size {
			out = append(out, a)
		}
	}
	return out
}

func TestProofClassification(t *testing.T) {
	for _, mode := range []kasm.SanitizeMode{kasm.SanNone, kasm.SanEmbsanC} {
		img := buildProofMini(t, mode)
		res := analyzeMini(t, img)

		globals := funcAccesses(t, img, res, "globals")
		if len(globals) != 3 {
			t.Fatalf("%s: globals has %d accesses, want 3", mode, len(globals))
		}
		for i, want := range []absint.ProofKind{absint.ProofGlobal, absint.ProofGlobal, absint.ProofNone} {
			if globals[i].Kind != want {
				t.Fatalf("%s: globals access %d at %#x proven %s, want %s",
					mode, i, globals[i].PC, globals[i].Kind, want)
			}
		}
		if globals[0].Object != "counter" || globals[1].Object != "counter" {
			t.Fatalf("%s: global proofs name %q/%q, want counter", mode, globals[0].Object, globals[1].Object)
		}

		spill := funcAccesses(t, img, res, "spill")
		if len(spill) != 4 {
			t.Fatalf("%s: spill has %d accesses, want 4", mode, len(spill))
		}
		for i, want := range []absint.ProofKind{absint.ProofStack, absint.ProofStack, absint.ProofStack, absint.ProofNone} {
			if spill[i].Kind != want {
				t.Fatalf("%s: spill access %d at %#x proven %s, want %s",
					mode, i, spill[i].PC, spill[i].Kind, want)
			}
		}

		mmio := funcAccesses(t, img, res, "mmio")
		if len(mmio) != 1 || mmio[0].Kind != absint.ProofMMIO {
			t.Fatalf("%s: mmio access not proven mmio: %+v", mode, mmio)
		}

		chase := funcAccesses(t, img, res, "chase")
		if len(chase) != 2 || chase[0].Kind != absint.ProofGlobal || chase[1].Kind != absint.ProofNone {
			t.Fatalf("%s: chase classification wrong: %+v", mode, chase)
		}
	}
}

// TestWideningLoopTerminates pins the loop-head behaviour: the fixpoint must
// converge (widening), the loop-varying index access must stay must-check,
// and the loop-invariant access must still be proven inside the loop body.
func TestWideningLoopTerminates(t *testing.T) {
	img := buildProofMini(t, kasm.SanEmbsanC)
	res := analyzeMini(t, img)
	loop := funcAccesses(t, img, res, "loop")
	if len(loop) != 2 {
		t.Fatalf("loop has %d accesses, want 2", len(loop))
	}
	if loop[0].Kind != absint.ProofNone {
		t.Fatalf("loop-varying access at %#x proven %s, want none", loop[0].PC, loop[0].Kind)
	}
	if loop[1].Kind != absint.ProofGlobal || loop[1].Object != "arr" {
		t.Fatalf("loop-invariant access at %#x proven %s/%q, want global/arr",
			loop[1].PC, loop[1].Kind, loop[1].Object)
	}
}

// TestStrippedImageDegrades pins the D-closed degradation: with the symbol
// table gone there are no objects, so no global proofs anywhere; every
// loaded-pointer access stays must-check. Stack and device proofs survive —
// they depend only on the code.
func TestStrippedImageDegrades(t *testing.T) {
	img := buildProofMini(t, kasm.SanNone).Strip()
	an, err := static.Analyze(img)
	if err != nil {
		t.Fatalf("analyze stripped: %v", err)
	}
	res := absint.Analyze(an, absint.Options{})
	if res.Stats.Global != 0 {
		t.Fatalf("stripped image has %d global proofs", res.Stats.Global)
	}
	for _, a := range res.Accesses {
		if a.Kind == absint.ProofGlobal {
			t.Fatalf("stripped image proved global at %#x", a.PC)
		}
	}
	if res.Stats.Stack == 0 {
		t.Fatalf("stripped image lost its stack proofs: %+v", res.Stats)
	}
	if res.Stats.MMIO == 0 {
		t.Fatalf("stripped image lost its mmio proofs: %+v", res.Stats)
	}
}

// TestDeterminism: two full recovery+analysis runs must agree exactly.
func TestDeterminism(t *testing.T) {
	img := buildProofMini(t, kasm.SanEmbsanC)
	a := analyzeMini(t, img)
	b := analyzeMini(t, img)
	if len(a.Accesses) != len(b.Accesses) {
		t.Fatalf("access counts differ: %d vs %d", len(a.Accesses), len(b.Accesses))
	}
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, a.Accesses[i], b.Accesses[i])
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestGuardedBufferFrameUnproven: a function that poisons inside its own
// frame (the guarded stack-buffer pattern) must get no stack proofs — the
// runtime legitimately traps there.
func TestGuardedBufferFrameUnproven(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E, Sanitize: kasm.SanEmbsanC})
	b.Func("_start")
	b.Li(isa.RegSP, 0x8000)
	b.Call("guarded")
	b.Ready()
	b.HALT()

	b.Func("guarded")
	b.Prologue(64)
	b.GuardedBuffer(16, 16, isa.RegA0)
	b.SW(isa.RegZero, isa.RegSP, 16) // in-frame, but the frame is poisoned
	b.UnguardBuffer(16, 16)
	b.Epilogue(64)

	img, err := b.Link("absint-guarded")
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	res := analyzeMini(t, img)
	for _, a := range funcAccesses(t, img, res, "guarded") {
		if a.Kind == absint.ProofStack {
			t.Fatalf("stack proof at %#x inside a poisoning function", a.PC)
		}
	}
}
