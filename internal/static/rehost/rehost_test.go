package rehost

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"embsan/internal/emu"
	"embsan/internal/guest/mystery"
	"embsan/internal/guest/vxworks"
	"embsan/internal/isa"
	"embsan/internal/kasm"
)

var update = flag.Bool("update", false, "rewrite golden files")

func liftMystery(t *testing.T, arch isa.Arch) (*mystery.Firmware, *Profile) {
	t.Helper()
	fw, err := mystery.Build("Mystery", arch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Lift(fw.Image)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return fw, p
}

func findReg(p *Profile, addr uint32) *Register {
	for i := range p.Registers {
		if p.Registers[i].Addr == addr {
			return &p.Registers[i]
		}
	}
	return nil
}

// TestLiftMysteryGroundTruth compares the inferred map against the mystery
// guest's ground-truth constants — which the lifter never sees: it gets the
// stripped image only.
func TestLiftMysteryGroundTruth(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchARM32E, isa.ArchMIPS32E, isa.ArchX86E} {
		t.Run(arch.String(), func(t *testing.T) {
			fw, p := liftMystery(t, arch)

			// The top-ranked allocator candidate must be the real one
			// (checked against the unstripped image's symbols).
			var allocAddr uint32
			for _, s := range fw.FullImage.Symbols {
				if s.Name == "mys_alloc" {
					allocAddr = s.Addr
				}
			}
			if len(p.Allocs) == 0 || p.Allocs[0].Entry != allocAddr {
				t.Errorf("top alloc candidate %+v, want entry %#x (mys_alloc)", p.Allocs, allocAddr)
			}

			if p.StackTop != mystery.StackTop {
				t.Errorf("stack top %#x, want %#x", p.StackTop, mystery.StackTop)
			}
			checks := []struct {
				addr uint32
				role Role
			}{
				{mystery.RegClkStatus, RoleBootStatus},
				{mystery.RegCtrl, RoleControl},
				{mystery.RegConsole, RoleConsole},
				{mystery.RegRxStatus, RoleRxStatus},
				{mystery.RegRxLen, RoleRxLen},
				{mystery.RegDone, RoleDone},
			}
			for _, c := range checks {
				r := findReg(p, c.addr)
				if r == nil {
					t.Errorf("register %#x not recovered", c.addr)
					continue
				}
				if r.Role != c.role {
					t.Errorf("register %#x role %s, want %s", c.addr, r.Role, c.role)
				}
			}
			if len(p.Registers) != len(checks) {
				t.Errorf("recovered %d registers, want %d: %+v", len(p.Registers), len(checks), p.Registers)
			}
			if len(p.Windows) != 1 {
				t.Fatalf("recovered %d windows, want 1: %+v", len(p.Windows), p.Windows)
			}
			w := p.Windows[0]
			if w.Base != mystery.Window || w.Size != mystery.WindowSize || !w.Read {
				t.Errorf("window %#x+%#x r=%v, want %#x+%#x readable",
					w.Base, w.Size, w.Read, uint32(mystery.Window), uint32(mystery.WindowSize))
			}
			clk := findReg(p, mystery.RegClkStatus)
			if clk != nil && (!clk.Poll || clk.Exit == 0) {
				t.Errorf("clk poll not recovered: %+v", clk)
			}
		})
	}
}

// TestLiftedDeviceBoots boots the stripped image on a stock machine plus
// only the synthesized bridge — no ground-truth device, no metadata.
func TestLiftedDeviceBoots(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchARM32E, isa.ArchMIPS32E, isa.ArchX86E} {
		t.Run(arch.String(), func(t *testing.T) {
			fw, p := liftMystery(t, arch)
			m, err := emu.New(fw.Image, emu.Config{Devices: []emu.DeviceFactory{Device(p)}})
			if err != nil {
				t.Fatal(err)
			}
			m.ReadyHook = func(m *emu.Machine) { m.RequestStop() }
			if r := m.Run(50_000_000); r != emu.StopRequest {
				t.Fatalf("boot stopped with %v (fault %v)", r, m.Fault())
			}
			if out := m.UART.String(); !strings.Contains(out, "mys v1") {
				t.Fatalf("console missing banner: %q", out)
			}

			// Drive one echo frame end to end through the bridge.
			m.ClearStop()
			m.Mailbox.Post([]byte{0x41, 10, 20, 30})
			if r := m.Run(50_000_000); r != emu.StopRequest {
				t.Fatalf("exec stopped with %v (fault %v)", r, m.Fault())
			}
			done, code := m.Mailbox.Done()
			if !done || code != 60 {
				t.Fatalf("echo via lifted device: done=%v code=%d, want 60", done, code)
			}
		})
	}
}

// TestLiftDeterminism: same image, byte-identical profile and stub.
func TestLiftDeterminism(t *testing.T) {
	fw, err := mystery.Build("Mystery", isa.ArchX86E)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Lift(fw.Image)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lift(fw.Image)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("two lifts of the same image render differently")
	}
	if a.RenderStub() != b.RenderStub() {
		t.Fatal("two lifts of the same image generate different stubs")
	}
}

// TestLiftRejectsMisalignedEntry: an entry point no instruction can start
// at is refused by Lift itself, with the error Validate would give, rather
// than yielding a profile that fails its own Validate.
func TestLiftRejectsMisalignedEntry(t *testing.T) {
	fw, err := mystery.Build("Mystery", isa.ArchX86E)
	if err != nil {
		t.Fatal(err)
	}
	shifted := *fw.Image
	shifted.Entry += 2
	cases := []struct {
		name string
		img  *kasm.Image
	}{
		{"empty image, entry 0xfeb", &kasm.Image{Name: "fuzz", Arch: isa.Arch(1), Base: kasm.DefaultBase,
			Entry: 0xfeb, DataAddr: kasm.DefaultBase + 64}},
		{"mystery, entry+2", &shifted},
	}
	for _, c := range cases {
		p, err := Lift(c.img)
		if err == nil {
			t.Errorf("%s: lifted a profile with entry %#x", c.name, p.Entry)
		} else if !strings.Contains(err.Error(), "misaligned") {
			t.Errorf("%s: error %q, want the misaligned-entry error", c.name, err)
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenMysteryProfile(t *testing.T) {
	_, p := liftMystery(t, isa.ArchX86E)
	checkGolden(t, "mystery_x86e.profile", []byte(p.Render()))
	checkGolden(t, "mystery_x86e.stub.go.txt", []byte(p.RenderStub()))
}

// TestGoldenVxworksProfile lifts the other closed guest's stripped image.
// It talks to the standard platform devices, so the profile records mailbox
// and UART traffic under their real addresses — and no foreign windows.
func TestGoldenVxworksProfile(t *testing.T) {
	fw, err := vxworks.Build("VxWorks", isa.ArchARM32E)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Lift(fw.Image)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "vxworks.profile", []byte(p.Render()))
}
