package emu

import (
	"bytes"
	"testing"

	"embsan/internal/isa"
	"embsan/internal/kasm"
)

// fuzzArches are the frontends the differential covers; MIPS32E is the one
// big-endian RAM path.
var fuzzArches = [...]isa.Arch{isa.ArchARM32E, isa.ArchMIPS32E, isa.ArchX86E}

// fuzzArch derives the frontend from the seed byte's top two bits, so the
// low bits keep seeding interleaving jitter.
func fuzzArch(seed uint8) isa.Arch { return fuzzArches[int(seed>>6)%len(fuzzArches)] }

// fuzzImage wraps raw fuzzer bytes into a loadable image: word-aligned text
// at a base past the null guard, capped so a run stays cheap. Returns nil
// when the input cannot form even one instruction word.
func fuzzImage(code []byte, arch isa.Arch) *kasm.Image {
	const maxText = 1024
	if len(code) > maxText {
		code = code[:maxText]
	}
	code = code[:len(code)&^3]
	if len(code) == 0 {
		return nil
	}
	return &kasm.Image{
		Name:  "fuzz",
		Arch:  arch,
		Base:  NullGuardSize,
		Entry: NullGuardSize,
		Text:  code,
	}
}

// encodeProgram assembles a builder program for the seed's frontend and
// returns its text bytes — the seed-corpus path from structured programs
// into the fuzzer's byte domain.
func encodeProgram(f *testing.F, seed uint8, build func(b *kasm.Builder)) []byte {
	b := kasm.NewBuilder(kasm.Target{Arch: fuzzArch(seed)})
	build(b)
	img, err := b.Link("seed")
	if err != nil {
		f.Fatal(err)
	}
	return img.Text
}

// sameOutcome fails unless two runs of one program agree on everything the
// guest can observe: stop reason, exit code, fault, retired-instruction
// count, every hart's state and the final RAM contents.
func sameOutcome(t *testing.T, leg string, want, got *Machine) {
	t.Helper()
	if want.StopReason() != got.StopReason() {
		t.Fatalf("%s: stop diverged: want %v, got %v", leg, want.StopReason(), got.StopReason())
	}
	if want.ExitCode() != got.ExitCode() {
		t.Fatalf("%s: exit diverged: want %d, got %d", leg, want.ExitCode(), got.ExitCode())
	}
	if want.ICount() != got.ICount() {
		t.Fatalf("%s: icnt diverged: want %d, got %d", leg, want.ICount(), got.ICount())
	}
	wf, gf := want.Fault(), got.Fault()
	if (wf == nil) != (gf == nil) || wf != nil && *wf != *gf {
		t.Fatalf("%s: fault diverged: want %+v, got %+v", leg, wf, gf)
	}
	for i := 0; i < want.NumHarts(); i++ {
		wh, gh := want.Hart(i), got.Hart(i)
		if wh.PC != gh.PC || wh.Regs != gh.Regs || wh.Active != gh.Active || wh.Halted != gh.Halted {
			t.Fatalf("%s: hart %d diverged:\nwant pc=%#x regs=%v\ngot  pc=%#x regs=%v",
				leg, i, wh.PC, wh.Regs, gh.PC, gh.Regs)
		}
	}
	wram, err1 := want.ReadBytes(NullGuardSize, want.RAMSize()-NullGuardSize)
	gram, err2 := got.ReadBytes(NullGuardSize, got.RAMSize()-NullGuardSize)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: ram read: %v / %v", leg, err1, err2)
	}
	if !bytes.Equal(wram, gram) {
		t.Fatalf("%s: final RAM diverged", leg)
	}
}

// FuzzChainedExecution runs arbitrary short programs on the chained engine
// and on its ablations and requires identical outcomes (sameOutcome). The
// seed byte picks the frontend (fuzzArch) and the interleaving seed. Random
// words decode into branch sprays, self-loops, overlapping blocks, mid-block
// jump targets and stores into text — exactly the block-graph shapes where
// a bad successor computation or a stale chain link would diverge first.
//
// Legs: the unchained engine (NoChain) and the uncached one (NoTBCache)
// must match one chained Run. A chained run in seed-derived budget slices
// stops mid-block over and over and must match one chained Run too. Slicing
// moves block boundaries and cuts scheduling quanta short, so that leg runs
// on one hart without jitter and compares only programs that never write
// their own text: a block runs the steps it decoded at entry, and a store
// into a later step of the running block shows at the next boundary.
func FuzzChainedExecution(f *testing.F) {
	f.Add(uint8(0), encodeProgram(f, 0, func(b *kasm.Builder) {
		b.Func("_start") // counted self-loop: the canonical chain
		b.Li(rT0, 40)
		b.Label("loop")
		b.ADDI(rA0, rA0, 1)
		b.ADDI(rT0, rT0, -1)
		b.BNEZ(rT0, "loop")
		b.HCALL(isa.HcallExit)
	}))
	f.Add(uint8(3), encodeProgram(f, 3, func(b *kasm.Builder) {
		b.Func("_start") // call/return: JAL chain in, JALR (unchained) out
		b.Li(rT0, 10)
		b.Label("loop")
		b.Call("leaf")
		b.ADDI(rT0, rT0, -1)
		b.BNEZ(rT0, "loop")
		b.HCALL(isa.HcallExit)
		b.Func("leaf")
		b.ADDI(rA0, rA0, 3)
		b.Ret()
	}))
	f.Add(uint8(7), encodeProgram(f, 7, func(b *kasm.Builder) {
		b.Func("_start") // branch ladder: both exits of each block exercised
		b.Li(rT0, 6)
		b.Label("a")
		b.ADDI(rT0, rT0, -1)
		b.BEQZ(rT0, "done")
		b.ANDI(rT1, rT0, 1)
		b.BNEZ(rT1, "a")
		b.ADDI(rA0, rA0, 1)
		b.J("a")
		b.Label("done")
		b.HCALL(isa.HcallExit)
	}))
	f.Add(uint8(2), encodeProgram(f, 2, coincidingBranchLoop)) // one successor, both directions
	f.Add(uint8(1), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, seed uint8, code []byte) {
		img := fuzzImage(code, fuzzArch(seed))
		if img == nil {
			t.Skip()
		}
		const budget = 4096
		newM := func(cfg Config) *Machine {
			cfg.RAMSize = 1 << 20
			m, err := New(img, cfg)
			if err != nil {
				t.Skip() // image rejected (e.g. doesn't fit): nothing to compare
			}
			return m
		}
		base := Config{MaxHarts: 2, Seed: uint64(seed)}
		run := func(cfg Config) *Machine {
			m := newM(cfg)
			m.Run(budget)
			return m
		}
		chained := run(base)
		plainCfg := base
		plainCfg.NoChain = true
		plain := run(plainCfg)
		sameOutcome(t, "NoChain", chained, plain)
		if plain.Counters().ChainHits != 0 {
			t.Fatalf("NoChain engine followed %d exit links", plain.Counters().ChainHits)
		}
		uncachedCfg := base
		uncachedCfg.NoTBCache = true
		sameOutcome(t, "NoTBCache", chained, run(uncachedCfg))

		solo := Config{MaxHarts: 1}
		sliced := newM(solo)
		slice := 1 + uint64(seed)%13
		for sliced.ICount() < budget {
			if sliced.Run(min(slice, budget-sliced.ICount())) != StopBudget {
				break
			}
		}
		if whole := run(solo); !wroteText(whole) && !wroteText(sliced) {
			sameOutcome(t, "sliced", whole, sliced)
		}
	})
}

// wroteText reports whether any text page of m was invalidated by a write.
func wroteText(m *Machine) bool {
	for _, g := range m.pageGen {
		if g != 0 {
			return true
		}
	}
	return false
}
