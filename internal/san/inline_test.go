package san

import (
	"encoding/binary"
	"testing"

	"embsan/internal/dsl"
	"embsan/internal/emu"
	"embsan/internal/isa"
	"embsan/internal/kasm"
)

// inlineRAM keeps the rig's shadow small enough to rebuild per fuzz worker.
const inlineRAM = 64 << 10

// inlineRig is a pure-KASAN deployment with the in-template check armed. Its
// text is one access stub per (size, load/store) pair, each `op a0, 0(a1)`
// followed by an exit, plus a suppressed copy of the word load. probe points
// a1 at any address, runs one stub and reports whether the template settled
// the access without calling the delegate.
type inlineRig struct {
	m     *emu.Machine
	rt    *Runtime
	stubs map[inlineStub]uint32
}

type inlineStub struct {
	size  uint32
	write bool
	quiet bool
}

func newInlineRig(tb testing.TB) *inlineRig {
	tb.Helper()
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Ready()
	b.HCALL(isa.HcallExit)
	stubs := []struct {
		name string
		key  inlineStub
		emit func()
	}{
		{"lbu", inlineStub{size: 1}, func() { b.LBU(rA0, rA1, 0) }},
		{"lhu", inlineStub{size: 2}, func() { b.LHU(rA0, rA1, 0) }},
		{"lw", inlineStub{size: 4}, func() { b.LW(rA0, rA1, 0) }},
		{"sb", inlineStub{size: 1, write: true}, func() { b.SB(rA0, rA1, 0) }},
		{"sh", inlineStub{size: 2, write: true}, func() { b.SH(rA0, rA1, 0) }},
		{"sw", inlineStub{size: 4, write: true}, func() { b.SW(rA0, rA1, 0) }},
		{"quiet_lw", inlineStub{size: 4, quiet: true}, func() { b.LW(rA0, rA1, 0) }},
	}
	for _, s := range stubs {
		b.Func(s.name)
		s.emit()
		b.HCALL(isa.HcallExit)
	}
	img, err := b.Link("inline")
	if err != nil {
		tb.Fatal(err)
	}
	m, err := emu.New(img, emu.Config{RAMSize: inlineRAM})
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := dsl.Parse(`
sanitizer kasan {
  intercept load(addr: ptr, size: u32) -> check;
  intercept store(addr: ptr, size: u32) -> check;
}`)
	if err != nil {
		tb.Fatal(err)
	}
	q, _ := img.Lookup("quiet_lw")
	rt, err := Attach(m, Options{Spec: spec.Sanitizers[0], Platform: &dsl.Platform{
		Name: img.Name, Arch: img.Arch.String(),
		Suppress: []dsl.Region{{Start: q.Addr, End: q.Addr + q.Size}},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	if !rt.SetSitePolicy(nil, true) {
		tb.Fatal("pure-KASAN runtime refused to arm")
	}
	if r := m.Run(10_000); r != emu.StopExit || !rt.Enabled() {
		tb.Fatalf("boot: stop=%v enabled=%v", r, rt.Enabled())
	}
	m.Snapshot()
	r := &inlineRig{m: m, rt: rt, stubs: map[inlineStub]uint32{}}
	for _, s := range stubs {
		sym, _ := img.Lookup(s.name)
		r.stubs[s.key] = sym.Addr
	}
	return r
}

// probe runs the stub for key against addr and reports whether the armed
// template settled the access, with the stub's PC.
func (r *inlineRig) probe(tb testing.TB, key inlineStub, addr uint32) (settled bool, pc uint32) {
	tb.Helper()
	pc, ok := r.stubs[key]
	if !ok {
		tb.Fatalf("no stub for %+v", key)
	}
	r.m.Restore()
	h := r.m.Hart(0)
	h.PC, h.Regs[rA1] = pc, addr
	before := r.m.Metrics().Counts()
	r.m.Run(1) // the access alone: a store may overwrite the stub's exit
	d := r.m.Metrics().Counts().Sub(before)
	fast, slow := d["emu.inline.fast"], d["emu.inline.slow"]
	if d["emu.mem.probes"] != 1 || fast+slow != 1 {
		tb.Fatalf("%+v at %#x: %d probes, inline fast=%d slow=%d; want one armed dispatch",
			key, addr, d["emu.mem.probes"], fast, slow)
	}
	return fast == 1, pc
}

// checkSettledNoop is the soundness property: an access the template
// settled, fed to the pure-KASAN delegate as the same MemEvent, must report
// nothing and set no stall.
func (r *inlineRig) checkSettledNoop(tb testing.TB, key inlineStub, addr uint32) bool {
	tb.Helper()
	settled, pc := r.probe(tb, key, addr)
	if !settled {
		return false
	}
	r.rt.reports = nil
	clear(r.rt.seen)
	ev := emu.MemEvent{PC: pc, Addr: addr, Size: key.size, Write: key.write}
	r.rt.onMem(&ev)
	if len(r.rt.reports) != 0 || ev.StallInsts != 0 {
		sh := r.rt.kasan.Shadow()
		tb.Fatalf("%+v at %#x (shadow %#x %#x): template settled it, delegate reported %v, stall %d",
			key, addr, sh.Get(addr), sh.Get(addr+key.size-1), r.rt.reports, ev.StallInsts)
	}
	return true
}

// setShadow overwrites the two granules starting at addr's (where they lie
// inside the shadow); the rig's shadow is otherwise left as booted.
func (r *inlineRig) setShadow(addr uint32, g0, g1 byte) {
	sh := r.rt.kasan.Shadow().Bytes()
	for i, v := range []byte{g0, g1} {
		if g := addr/8 + uint32(i); g < uint32(len(sh)) {
			sh[g] = v
		}
	}
}

// TestInlineCleanTable pins the settled set access by access: the template
// settles exactly device memory, fully addressable granules and accesses
// ending inside a partial granule's valid prefix; everything else reaches
// the delegate. Every settled case is also checked against the delegate.
func TestInlineCleanTable(t *testing.T) {
	r := newInlineRig(t)
	const a = 0x8000 // granule-aligned RAM address
	lw := inlineStub{size: 4}
	cases := []struct {
		name   string
		key    inlineStub
		addr   uint32
		g0, g1 byte
		want   bool
	}{
		{"clean word", lw, a, 0, 0, true},
		{"clean word across granules", lw, a + 6, 0, 0, true},
		{"poisoned granule", lw, a, CodeHeapFree, 0, false},
		{"poisoned second granule", lw, a + 6, 0, CodeHeapRedzone, false},
		{"word inside 4-byte prefix", lw, a, 4, 0, true},
		{"word past 3-byte prefix", lw, a, 3, 0, false},
		{"byte at end of prefix", inlineStub{size: 1}, a + 4, 5, 0, true},
		{"byte just past prefix", inlineStub{size: 1}, a + 5, 5, 0, false},
		{"half inside prefix", inlineStub{size: 2, write: true}, a + 2, 4, 0, true},
		{"half straddling prefix end", inlineStub{size: 2}, a + 3, 4, 0, false},
		{"word across partial then clean", lw, a + 6, 7, 0, false},
		{"word across clean then partial", lw, a + 6, 0, 2, false},
		{"null guard", lw, 0x10, 0, 0, false},
		{"last RAM word", lw, inlineRAM - 4, 0, 0, true},
		{"last RAM word poisoned", lw, inlineRAM - 4, CodeGlobalRedzone, 0, false},
		{"beyond RAM", lw, inlineRAM + 0x100, 0, 0, false},
		{"word straddling RAM end", lw, inlineRAM - 2, 0, 0, false},
		{"device window", lw, emu.MMIOBase, 0, 0, true},
		{"top of address space", inlineStub{size: 1, write: true}, 0xFFFF_FFFF, 0, 0, true},
		{"suppressed site, poisoned", inlineStub{size: 4, quiet: true}, a, CodeHeapFree, CodeHeapFree, true},
		{"suppressed site, null guard", inlineStub{size: 4, quiet: true}, 0x10, 0, 0, true},
	}
	for _, c := range cases {
		r.setShadow(c.addr, c.g0, c.g1)
		if got := r.checkSettledNoop(t, c.key, c.addr); got != c.want {
			t.Errorf("%s: settled=%v, want %v", c.name, got, c.want)
		}
	}
}

// FuzzInlineClean drives the soundness property over random shadow contents,
// access sizes 1, 2 and 4 and addresses in the null guard, in and across
// granules, at the end of RAM, beyond RAM and in the device window.
func FuzzInlineClean(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 0, 0, 0, 0},
		{1, 4, 0, 2, 0, 0, 0},
		{1, 5, 0x80, 6, 0, 1, 0},
		{2, 0, 0, 7, 0, 2, 0xFA},
		{3, 0, 0, 0, 0, 0, 0},
		{4, 0, 0, 0, 0, 0, 0},
		{5, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 3, 0, 2, 4},
	} {
		f.Add(seed)
	}
	r := newInlineRig(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		off := uint32(binary.LittleEndian.Uint16(data[1:3]))
		var addr uint32
		switch data[0] % 6 {
		case 0: // null guard
			addr = off % emu.NullGuardSize
		case 1: // anywhere in RAM, partial and straddling granules included
			addr = emu.NullGuardSize + off%(inlineRAM-emu.NullGuardSize)
		case 2: // the last RAM words, straddling the end
			addr = inlineRAM - 8 + off%8
		case 3: // beyond RAM, below the device window
			addr = inlineRAM + binary.LittleEndian.Uint32(data[1:5])%(emu.MMIOBase-inlineRAM)
		default: // at or above MMIOBase
			addr = emu.MMIOBase + binary.LittleEndian.Uint32(data[1:5])%(0xFFFF_FFFF-emu.MMIOBase+1)
		}
		key := inlineStub{size: []uint32{1, 2, 4}[data[3]%3], write: data[3]&4 != 0}
		r.setShadow(addr, data[5], data[6])
		r.checkSettledNoop(t, key, addr)
	})
}
