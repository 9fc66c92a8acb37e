package emu

import (
	"testing"

	"embsan/internal/isa"
	"embsan/internal/kasm"
)

const (
	rZ  = isa.RegZero
	rSP = isa.RegSP
	rA0 = isa.RegA0
	rA1 = isa.RegA1
	rA2 = isa.RegA2
	rA3 = isa.RegA3
	rT0 = isa.RegT0
	rT1 = isa.RegT1
)

func mustLink(t *testing.T, b *kasm.Builder, name string) *kasm.Image {
	t.Helper()
	img, err := b.Link(name)
	if err != nil {
		t.Fatalf("link %s: %v", name, err)
	}
	return img
}

func newMachine(t *testing.T, img *kasm.Image) *Machine {
	t.Helper()
	m, err := New(img, Config{})
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	return m
}

// exitWith builds the common epilogue: hcall exit with a0.
func exitWith(b *kasm.Builder) { b.HCALL(isa.HcallExit) }

func TestArithmeticAndCalls(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchARM32E, isa.ArchMIPS32E, isa.ArchX86E} {
		b := kasm.NewBuilder(kasm.Target{Arch: arch})
		b.GlobalRaw("stack", 4096)
		b.Func("_start")
		b.La(rSP, "stack")
		b.ADDI(rSP, rSP, 2044)
		b.Li(rA0, 5)
		b.Li(rA1, 7)
		b.Call("addmul")
		exitWith(b)
		b.Func("addmul") // returns (a0+a1)*2
		b.ADD(rA0, rA0, rA1)
		b.SLLI(rA0, rA0, 1)
		b.Ret()
		m := newMachine(t, mustLink(t, b, "arith"))
		if r := m.Run(10000); r != StopExit {
			t.Fatalf("%s: stop = %v, fault = %v", arch, r, m.Fault())
		}
		if m.ExitCode() != 24 {
			t.Errorf("%s: exit = %d, want 24", arch, m.ExitCode())
		}
	}
}

func TestLoopsLoadsStores(t *testing.T) {
	// Sum 1..10 into a global, then read it back.
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("acc", 4)
	b.Func("_start")
	b.Li(rT0, 1)
	b.Li(rT1, 11)
	b.La(rA1, "acc")
	b.Label("loop")
	b.LW(rA0, rA1, 0)
	b.ADD(rA0, rA0, rT0)
	b.SW(rA0, rA1, 0)
	b.ADDI(rT0, rT0, 1)
	b.BNE(rT0, rT1, "loop")
	b.LW(rA0, rA1, 0)
	exitWith(b)
	m := newMachine(t, mustLink(t, b, "loop"))
	if r := m.Run(0); r != StopExit {
		t.Fatalf("stop = %v", r)
	}
	if m.ExitCode() != 55 {
		t.Errorf("exit = %d, want 55", m.ExitCode())
	}
}

func TestByteHalfAccessAndSignExtension(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchARM32E, isa.ArchMIPS32E} {
		b := kasm.NewBuilder(kasm.Target{Arch: arch})
		b.GlobalRaw("buf", 16)
		b.Func("_start")
		b.La(rA1, "buf")
		b.Li(rT0, -2) // 0xFFFFFFFE
		b.SB(rT0, rA1, 0)
		b.LB(rA0, rA1, 0) // sign-extended -2
		b.LBU(rT1, rA1, 0)
		b.ADD(rA0, rA0, rT1) // -2 + 254 = 252
		b.SH(rT0, rA1, 4)
		b.LH(rT1, rA1, 4) // -2
		b.ADD(rA0, rA0, rT1)
		exitWith(b)
		m := newMachine(t, mustLink(t, b, "bytes"))
		if r := m.Run(0); r != StopExit {
			t.Fatalf("%s: stop = %v fault=%v", arch, r, m.Fault())
		}
		if m.ExitCode() != 250 {
			t.Errorf("%s: exit = %d, want 250", arch, m.ExitCode())
		}
	}
}

func TestNullDerefFaults(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.LW(rA0, rZ, 16) // load from address 16 -> null guard page
	exitWith(b)
	m := newMachine(t, mustLink(t, b, "null"))
	if r := m.Run(0); r != StopFault {
		t.Fatalf("stop = %v, want fault", r)
	}
	f := m.Fault()
	if f.Kind != FaultNullDeref || f.Addr != 16 {
		t.Errorf("fault = %+v", f)
	}
}

func TestUnmappedFaults(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rA1, 0x2000000) // past 16MiB RAM
	b.LW(rA0, rA1, 0)
	exitWith(b)
	m := newMachine(t, mustLink(t, b, "unmapped"))
	if r := m.Run(0); r != StopFault || m.Fault().Kind != FaultUnmapped {
		t.Fatalf("stop = %v fault = %+v", r, m.Fault())
	}
}

func TestUARTOutput(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rA1, int32(int64(UARTBase)-(1<<32)))
	for _, c := range "hi" {
		b.Li(rT0, int32(c))
		b.SB(rT0, rA1, 0)
	}
	b.Li(rA0, 0)
	exitWith(b)
	m := newMachine(t, mustLink(t, b, "uart"))
	m.Run(0)
	if got := m.UART.String(); got != "hi" {
		t.Errorf("uart = %q", got)
	}
}

func TestHypercallPutcAndHalt(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rA0, 'X')
	b.HCALL(isa.HcallPutc)
	b.HALT()
	m := newMachine(t, mustLink(t, b, "putc"))
	if r := m.Run(0); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if m.UART.String() != "X" {
		t.Errorf("uart = %q", m.UART.String())
	}
}

func TestMultiHartSpawnAndAtomics(t *testing.T) {
	// Hart 0 spawns hart 1; both atomically add to a counter; hart 0 waits
	// for the flag then exits with the counter value.
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("counter", 4)
	b.GlobalRaw("flag", 4)
	b.GlobalRaw("stack1", 4096)
	b.Func("_start")
	b.Li(rA0, 1)
	b.La(rA1, "worker")
	b.La(rA2, "stack1")
	b.ADDI(rA2, rA2, 2044)
	b.HCALL(isa.HcallSpawn)
	b.La(rT0, "counter")
	b.Li(rT1, 100)
	b.AMOADDW(rZ, rT0, rT1)
	b.La(rT0, "flag")
	b.Label("wait")
	b.YIELD()
	b.LW(rA0, rT0, 0)
	b.BEQZ(rA0, "wait")
	b.La(rT0, "counter")
	b.LW(rA0, rT0, 0)
	exitWith(b)
	b.Func("worker")
	b.La(rT0, "counter")
	b.Li(rT1, 23)
	b.AMOADDW(rZ, rT0, rT1)
	b.La(rT0, "flag")
	b.Li(rT1, 1)
	b.SW(rT1, rT0, 0)
	b.HALT()
	m := newMachine(t, mustLink(t, b, "smp"))
	if r := m.Run(100000); r != StopExit {
		t.Fatalf("stop = %v fault=%v", r, m.Fault())
	}
	if m.ExitCode() != 123 {
		t.Errorf("exit = %d, want 123", m.ExitCode())
	}
}

func TestLRSCConflict(t *testing.T) {
	// SC without a reservation must fail.
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("w", 4)
	b.Func("_start")
	b.La(rA1, "w")
	b.Li(rT0, 9)
	b.SCW(rA0, rA1, rT0) // no LR -> rd = 1 (failure)
	exitWith(b)
	m := newMachine(t, mustLink(t, b, "sc"))
	m.Run(0)
	if m.ExitCode() != 1 {
		t.Errorf("sc without reservation = %d, want 1", m.ExitCode())
	}

	// LR/SC pair succeeds and stores.
	b2 := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b2.GlobalRaw("w", 4)
	b2.Func("_start")
	b2.La(rA1, "w")
	b2.LRW(rT0, rA1)
	b2.Li(rT0, 7)
	b2.SCW(rA0, rA1, rT0)
	b2.LW(rT1, rA1, 0)
	b2.ADD(rA0, rA0, rT1) // 0 + 7
	exitWith(b2)
	m2 := newMachine(t, mustLink(t, b2, "sc2"))
	m2.Run(0)
	if m2.ExitCode() != 7 {
		t.Errorf("lr/sc = %d, want 7", m2.ExitCode())
	}
}

// TestRestoreStraddlingStore: a store across a page boundary dirties both
// pages, so Restore reverts both.
func TestRestoreStraddlingStore(t *testing.T) {
	const boundary = 0x8000
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Ready()
	b.Li(rA1, boundary-2)
	b.Li(rT0, -1)
	b.SW(rT0, rA1, 0)
	b.Li(rA0, 0)
	exitWith(b)
	m := newMachine(t, mustLink(t, b, "straddle"))
	m.ReadyHook = func(m *Machine) { m.Snapshot() }
	m.Run(0)
	if got, _ := m.ReadBytes(boundary-2, 4); string(got) != "\xff\xff\xff\xff" {
		t.Fatalf("store wrote % x", got)
	}
	m.Restore()
	if got, _ := m.ReadBytes(boundary-2, 4); string(got) != "\x00\x00\x00\x00" {
		t.Errorf("after Restore: % x, want zeros on both pages", got)
	}
}

// TestStoreBreaksOtherHartsReservation: a store by another hart breaks an
// LR reservation, also one the harts got back from a Restore.
func TestStoreBreaksOtherHartsReservation(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("w", 4)
	b.Func("_start")
	b.La(rT1, "w")
	b.LRW(rT0, rT1)
	b.Ready() // the snapshot holds hart 0's reservation
	b.Li(rA0, 1)
	b.La(rA1, "other")
	b.Li(rA2, 0)
	b.HCALL(isa.HcallSpawn)
	b.YIELD() // hart 1 stores to w and halts
	b.Li(rT0, 5)
	b.SCW(rA0, rT1, rT0) // must fail: a0 = 1
	exitWith(b)
	b.Func("other")
	b.La(rT1, "w")
	b.Li(rT0, 9)
	b.SW(rT0, rT1, 0)
	b.HALT()
	m := newMachine(t, mustLink(t, b, "lrbreak"))
	m.ReadyHook = func(m *Machine) { m.Snapshot() }
	for run := 0; run < 2; run++ {
		if run > 0 {
			m.Restore()
		}
		if r := m.Run(0); r != StopExit || m.ExitCode() != 1 {
			t.Errorf("run %d: stop=%v exit=%d, want SC failure (1)", run, r, m.ExitCode())
		}
	}
}

func TestMemProbeFiresAndCanStop(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("buf", 8)
	b.Func("_start")
	b.La(rA1, "buf")
	b.Li(rT0, 1)
	b.SW(rT0, rA1, 0)
	b.LW(rT1, rA1, 0)
	b.Li(rA0, 0)
	exitWith(b)
	img := mustLink(t, b, "probe")
	m := newMachine(t, img)
	var events []MemEvent
	m.SetProbes(ProbeSet{Mem: func(ev *MemEvent) {
		events = append(events, *ev)
	}})
	m.Run(0)
	if len(events) != 2 {
		t.Fatalf("probe fired %d times, want 2", len(events))
	}
	if !events[0].Write || events[1].Write {
		t.Error("probe direction flags wrong")
	}
	buf, _ := img.Lookup("buf")
	if events[0].Addr != buf.Addr || events[0].Size != 4 {
		t.Errorf("probe addr/size = %#x/%d", events[0].Addr, events[0].Size)
	}

	// A probe requesting stop must prevent the access.
	m2 := newMachine(t, img)
	m2.SetProbes(ProbeSet{Mem: func(ev *MemEvent) {
		if ev.Write {
			m2.RequestStop()
		}
	}})
	if r := m2.Run(0); r != StopRequest {
		t.Fatalf("stop = %v", r)
	}
	w, _ := m2.ReadWord(buf.Addr)
	if w != 0 {
		t.Error("store executed despite probe stop")
	}
}

func TestSanckProbe(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E, Sanitize: kasm.SanEmbsanC})
	b.GlobalRaw("buf", 8)
	b.Func("_start")
	b.La(rA1, "buf")
	b.Li(rT0, 42)
	b.SW(rT0, rA1, 4)
	b.Li(rA0, 0)
	exitWith(b)
	img := mustLink(t, b, "sanck")
	m := newMachine(t, img)
	var got []MemEvent
	m.SetProbes(ProbeSet{Sanck: func(ev *MemEvent) { got = append(got, *ev) }})
	m.Run(0)
	buf, _ := img.Lookup("buf")
	if len(got) != 1 || got[0].Addr != buf.Addr+4 || !got[0].Write || got[0].Size != 4 {
		t.Errorf("sanck events = %+v", got)
	}
}

func TestPCHook(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rA0, 1)
	b.Call("victim")
	exitWith(b)
	b.Func("victim")
	b.ADDI(rA0, rA0, 1)
	b.Ret()
	img := mustLink(t, b, "hook")
	m := newMachine(t, img)
	v, _ := img.Lookup("victim")
	var hits int
	m.HookPC(v.Addr, func(m *Machine, h *Hart) {
		hits++
		if h.Regs[rA0] != 1 {
			t.Errorf("a0 at hook = %d", h.Regs[rA0])
		}
	})
	m.Run(0)
	if hits != 1 {
		t.Errorf("hook hits = %d", hits)
	}
	if m.ExitCode() != 2 {
		t.Errorf("exit = %d", m.ExitCode())
	}
}

func TestStallProbe(t *testing.T) {
	// Probe stalls hart 0 on its first store; hart 1 (spawned) runs during
	// the stall window; afterwards the store completes.
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("a", 4)
	b.GlobalRaw("bvar", 4)
	b.GlobalRaw("stk", 1024)
	b.Func("_start")
	b.Li(rA0, 1)
	b.La(rA1, "worker")
	b.La(rA2, "stk")
	b.ADDI(rA2, rA2, 1020)
	b.HCALL(isa.HcallSpawn)
	b.La(rT0, "a")
	b.Li(rT1, 5)
	b.SW(rT1, rT0, 0) // stalled here
	b.La(rT0, "bvar")
	b.LW(rA0, rT0, 0) // should observe worker's write after the stall
	exitWith(b)
	b.Func("worker")
	b.La(rT0, "bvar")
	b.Li(rT1, 77)
	b.SW(rT1, rT0, 0)
	b.HALT()
	img := mustLink(t, b, "stall")
	m := newMachine(t, img)
	stalled := false
	aSym, _ := img.Lookup("a")
	m.SetProbes(ProbeSet{Mem: func(ev *MemEvent) {
		if ev.Write && ev.Addr == aSym.Addr && !stalled {
			stalled = true
			ev.StallInsts = 500
		}
	}})
	if r := m.Run(100000); r != StopExit {
		t.Fatalf("stop = %v fault=%v", r, m.Fault())
	}
	if !stalled {
		t.Fatal("probe never stalled")
	}
	if m.ExitCode() != 77 {
		t.Errorf("exit = %d, want 77 (worker ran during stall)", m.ExitCode())
	}
	w, _ := m.ReadWord(aSym.Addr)
	if w != 5 {
		t.Errorf("stalled store lost: a = %d", w)
	}
}

// TestProbeEventStallResets: the machine refills one MemEvent in place for
// every dispatch, so StallInsts — an out-parameter — must restart at 0. A
// probe that stalls only its first dispatch must see every later one arrive
// clean, and the run must finish with exactly one retried access.
func TestProbeEventStallResets(t *testing.T) {
	for _, mode := range []kasm.SanitizeMode{kasm.SanNone, kasm.SanEmbsanC} {
		b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E, Sanitize: mode})
		b.GlobalRaw("buf", 4)
		b.Func("_start")
		b.La(rA1, "buf")
		b.Li(rT0, 10)
		b.Label("loop")
		b.SW(rT0, rA1, 0)
		b.ADDI(rT0, rT0, -1)
		b.BNEZ(rT0, "loop")
		b.Li(rA0, 0)
		exitWith(b)
		m := newMachine(t, mustLink(t, b, "stallreset"))
		calls := 0
		probe := func(ev *MemEvent) {
			if ev.StallInsts != 0 {
				t.Fatalf("%v: dispatch %d arrived with StallInsts=%d", mode, calls+1, ev.StallInsts)
			}
			calls++
			if calls == 1 {
				ev.StallInsts = 40
			}
		}
		if mode == kasm.SanEmbsanC {
			m.SetProbes(ProbeSet{Sanck: probe})
		} else {
			m.SetProbes(ProbeSet{Mem: probe})
		}
		if r := m.Run(100_000); r != StopExit {
			t.Fatalf("%v: stop=%v after %d dispatches", mode, r, calls)
		}
		if calls != 11 {
			t.Errorf("%v: %d dispatches, want 11 (10 stores, the first retried once)", mode, calls)
		}
	}
}

func TestMailboxRoundTrip(t *testing.T) {
	// Guest waits for a mailbox input, sums its bytes, writes the sum to
	// the done register.
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rA1, int32(int64(MailboxBase)-(1<<32)))
	b.Label("poll")
	b.YIELD()
	b.LW(rT0, rA1, 0)
	b.BEQZ(rT0, "poll")
	b.LW(rA2, rA1, 4) // len
	b.Li(rA3, int32(int64(MailboxData)-(1<<32)))
	b.Li(rA0, 0)
	b.Li(rT0, 0)
	b.Label("sum")
	b.BGE(rT0, rA2, "done")
	b.ADD(rT1, rA3, rT0)
	b.LBU(rT1, rT1, 0)
	b.ADD(rA0, rA0, rT1)
	b.ADDI(rT0, rT0, 1)
	b.J("sum")
	b.Label("done")
	b.SW(rA0, rA1, 8)
	b.J("poll")
	m := newMachine(t, mustLink(t, b, "mbox"))
	m.Mailbox.Post([]byte{1, 2, 3, 4})
	// Writing the done register stops the machine so the host regains
	// control immediately.
	if r := m.Run(100000); r != StopRequest {
		t.Fatalf("stop = %v", r)
	}
	done, code := m.Mailbox.Done()
	if !done || code != 10 {
		t.Errorf("done=%v code=%d, want true,10", done, code)
	}
	// And the machine is resumable for the next input.
	m.Mailbox.Post([]byte{5, 5})
	if r := m.Run(100000); r != StopRequest {
		t.Fatalf("second stop = %v", r)
	}
	if _, code := m.Mailbox.Done(); code != 10 {
		t.Errorf("second code = %d", code)
	}
}

func TestSnapshotRestore(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("g", 4)
	b.Func("_start")
	b.Ready()
	b.La(rA1, "g")
	b.LW(rA0, rA1, 0)
	b.ADDI(rA0, rA0, 1)
	b.SW(rA0, rA1, 0)
	exitWith(b)
	img := mustLink(t, b, "snap")
	m := newMachine(t, img)
	m.ReadyHook = func(m *Machine) { m.Snapshot() }
	gSym, _ := img.Lookup("g")
	for run := 0; run < 3; run++ {
		if run > 0 {
			m.Restore()
		}
		if r := m.Run(0); r != StopExit {
			t.Fatalf("run %d: stop = %v", run, r)
		}
		// Every run starts from g==0, so the exit code is always 1.
		if m.ExitCode() != 1 {
			t.Errorf("run %d: exit = %d, want 1", run, m.ExitCode())
		}
		w, _ := m.ReadWord(gSym.Addr)
		if w != 1 {
			t.Errorf("run %d: g = %d", run, w)
		}
		if !m.ReadyReached {
			t.Error("ready flag lost")
		}
	}
}

// TestCoverageHook pins the hook's contract: one report per block entry PC
// per installation, however often the block runs, and a fresh report of
// every block after the hook is installed again.
func TestCoverageHook(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Ready()
	b.Li(rT0, 3)
	b.Label("spin")
	b.ADDI(rT0, rT0, -1)
	b.BNEZ(rT0, "spin")
	b.Li(rA0, 0)
	exitWith(b)
	m := newMachine(t, mustLink(t, b, "cov"))
	m.ReadyHook = func(m *Machine) { m.Snapshot() }
	pcs := map[uint32]int{}
	hook := func(pc uint32) { pcs[pc]++ }
	if prev := m.SetCoverageHook(hook); prev != nil {
		t.Fatal("a fresh machine has a coverage hook")
	}
	want := func(n int) {
		t.Helper()
		if len(pcs) < 2 {
			t.Fatalf("coverage saw %d blocks", len(pcs))
		}
		for pc, c := range pcs {
			if c != n {
				t.Errorf("block %#x reported %d times, want %d", pc, c, n)
			}
		}
	}
	m.Run(0)
	if c := m.Counters(); c.ChainHits+c.Dispatches <= uint64(len(pcs)) {
		t.Fatalf("premise: %d block entries for %d blocks, the loop never re-entered one",
			c.ChainHits+c.Dispatches, len(pcs))
	}
	want(1)
	m.Restore()
	m.Run(0)
	want(1)
	m.Restore()
	if prev := m.SetCoverageHook(hook); prev == nil {
		t.Fatal("SetCoverageHook did not return the installed hook")
	}
	m.Run(0)
	want(2)
	m.Restore()
	m.SetCoverageHook(nil)
	m.Run(0)
	want(2)
}

func TestCSRs(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.CSRR(rA0, isa.CSRHartID)
	b.CSRR(rT0, isa.CSRNHarts)
	b.SLLI(rT0, rT0, 4)
	b.OR(rA0, rA0, rT0)
	exitWith(b)
	m := newMachine(t, mustLink(t, b, "csr"))
	m.Run(0)
	if m.ExitCode() != 0x20 { // hart 0, 2 harts
		t.Errorf("exit = %#x, want 0x20", m.ExitCode())
	}
}

func TestRunBudgetResumes(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rT0, 1000)
	b.Label("spin")
	b.ADDI(rT0, rT0, -1)
	b.BNEZ(rT0, "spin")
	b.Li(rA0, 42)
	exitWith(b)
	m := newMachine(t, mustLink(t, b, "budget"))
	if r := m.Run(100); r != StopBudget {
		t.Fatalf("stop = %v", r)
	}
	if r := m.Run(0); r != StopExit || m.ExitCode() != 42 {
		t.Fatalf("resume: stop = %v exit = %d", r, m.ExitCode())
	}
}

func TestTestDevExitAndEvents(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.Li(rA1, int32(int64(TestDevBase)-(1<<32)))
	b.Li(rT0, 7)
	b.SW(rT0, rA1, 4) // event
	b.Li(rT0, 3)
	b.SW(rT0, rA1, 0) // exit 3
	b.HALT()
	m := newMachine(t, mustLink(t, b, "testdev"))
	if r := m.Run(0); r != StopExit || m.ExitCode() != 3 {
		t.Fatalf("stop=%v exit=%d", r, m.ExitCode())
	}
	if len(m.TestDev.Events) != 1 || m.TestDev.Events[0] != 7 {
		t.Errorf("events = %v", m.TestDev.Events)
	}
}
