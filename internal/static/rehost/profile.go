package rehost

import (
	"fmt"
	"sort"
	"strings"

	"embsan/internal/emu"
	"embsan/internal/isa"
)

// Role classifies one inferred MMIO register by how the firmware uses it —
// which decides how the synthesized device bridges it onto the platform.
type Role uint8

const (
	// RoleBootStatus is polled outside the input path (clock/PLL/reset
	// gates). The device feeds the poll's exit value so boot progresses.
	RoleBootStatus Role = iota
	// RoleRxStatus is polled on the input path; bridged to the mailbox
	// pending flag, and its first read marks the ready point.
	RoleRxStatus
	// RoleRxLen is a scalar read on the input path; bridged to the pending
	// frame length.
	RoleRxLen
	// RoleDone is written on the input path; bridged to the mailbox done
	// register so a result write ends the frame.
	RoleDone
	// RoleConsole is a byte-wide write-only register; bridged to the UART.
	RoleConsole
	// RoleControl covers remaining writes; the device absorbs them.
	RoleControl
	// RoleScratch covers remaining reads; the device serves zero.
	RoleScratch
)

func (r Role) String() string {
	switch r {
	case RoleBootStatus:
		return "boot-status"
	case RoleRxStatus:
		return "rx-status"
	case RoleRxLen:
		return "rx-len"
	case RoleDone:
		return "done"
	case RoleConsole:
		return "console"
	case RoleControl:
		return "control"
	case RoleScratch:
		return "scratch"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// Register is one inferred device register: an MMIO address every access of
// which resolves to a single exact location.
type Register struct {
	Addr  uint32
	Role  Role
	Read  bool
	Write bool
	Sizes []uint32 // distinct access widths, sorted

	// Poll carries the recovered status-poll shape: a read in a loop whose
	// value gates the back-edge. Exit is the value that releases the loop,
	// Stall the value that keeps it spinning.
	Poll  bool
	Exit  uint32
	Stall uint32

	PCs []uint32 // access sites, sorted
}

// Window is one inferred device data window: a page range the firmware
// accesses through a varying (loop-carried) pointer. Reads are bridged to
// the mailbox data window.
type Window struct {
	Base  uint32
	Size  uint32
	Read  bool
	Write bool
	PCs   []uint32
}

// AllocCandidate is one statically ranked allocator entry, kept for the
// Prober to confirm behaviourally.
type AllocCandidate struct {
	Entry  uint32
	Name   string
	Score  int
	Shaped bool
}

// Profile is everything the lifter recovered from a metadata-free image:
// enough to synthesize a device, boot the firmware, and point the Prober at
// the allocator.
type Profile struct {
	Name  string
	Arch  isa.Arch
	Entry uint32

	// RAM layout.
	ImageBase uint32
	ImageEnd  uint32 // end of bss
	StackTop  uint32 // 0 when not recovered from the entry block

	Registers []Register // sorted by Addr
	Windows   []Window   // sorted by Base, non-overlapping

	Allocs []AllocCandidate

	// Provenance.
	FuncsRecovered int
	FuncsReachable int
}

// checkEntry rejects an entry point no instruction can start at.
func checkEntry(entry uint32) error {
	if entry%4 != 0 {
		return fmt.Errorf("rehost: entry %#x misaligned", entry)
	}
	return nil
}

// Validate checks the internal consistency every lifted profile must have,
// whatever bytes went in. The fuzz target runs it on arbitrary inputs.
func (p *Profile) Validate() error {
	if err := checkEntry(p.Entry); err != nil {
		return err
	}
	for i, w := range p.Windows {
		if w.Size == 0 || w.Base%0x1000 != 0 {
			return fmt.Errorf("rehost: window %#x+%#x not page-shaped", w.Base, w.Size)
		}
		if w.Base < emu.MMIOBase {
			return fmt.Errorf("rehost: window %#x below MMIO space", w.Base)
		}
		if !w.Read && !w.Write {
			return fmt.Errorf("rehost: window %#x never accessed", w.Base)
		}
		if i > 0 && w.Base < p.Windows[i-1].Base+p.Windows[i-1].Size {
			return fmt.Errorf("rehost: windows overlap at %#x", w.Base)
		}
		if err := checkPCs(w.PCs); err != nil {
			return fmt.Errorf("rehost: window %#x: %w", w.Base, err)
		}
	}
	for i, r := range p.Registers {
		if r.Addr < emu.MMIOBase {
			return fmt.Errorf("rehost: register %#x below MMIO space", r.Addr)
		}
		if i > 0 && r.Addr <= p.Registers[i-1].Addr {
			return fmt.Errorf("rehost: registers unsorted at %#x", r.Addr)
		}
		for _, w := range p.Windows {
			if r.Addr >= w.Base && r.Addr < w.Base+w.Size {
				return fmt.Errorf("rehost: register %#x inside window %#x", r.Addr, w.Base)
			}
		}
		if !r.Read && !r.Write {
			return fmt.Errorf("rehost: register %#x never accessed", r.Addr)
		}
		if r.Poll && !r.Read {
			return fmt.Errorf("rehost: polled register %#x has no reads", r.Addr)
		}
		if r.Poll && r.Exit == r.Stall {
			return fmt.Errorf("rehost: register %#x poll exit == stall", r.Addr)
		}
		if len(r.Sizes) == 0 {
			return fmt.Errorf("rehost: register %#x has no access widths", r.Addr)
		}
		for j, s := range r.Sizes {
			if s != 1 && s != 2 && s != 4 {
				return fmt.Errorf("rehost: register %#x width %d", r.Addr, s)
			}
			if j > 0 && s <= r.Sizes[j-1] {
				return fmt.Errorf("rehost: register %#x widths unsorted", r.Addr)
			}
		}
		if err := checkPCs(r.PCs); err != nil {
			return fmt.Errorf("rehost: register %#x: %w", r.Addr, err)
		}
	}
	for i, c := range p.Allocs {
		if i > 0 && c.Score > p.Allocs[i-1].Score {
			return fmt.Errorf("rehost: alloc candidates unsorted at %#x", c.Entry)
		}
	}
	return nil
}

func checkPCs(pcs []uint32) error {
	for i, pc := range pcs {
		if i > 0 && pc <= pcs[i-1] {
			return fmt.Errorf("access sites unsorted at %#x", pc)
		}
	}
	return nil
}

// Render produces the deterministic textual form of the profile: the golden
// artefact, and what `embsan rehost` prints.
func (p *Profile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rehost profile v1\n")
	fmt.Fprintf(&b, "name:  %s\n", p.Name)
	fmt.Fprintf(&b, "arch:  %s\n", p.Arch)
	fmt.Fprintf(&b, "entry: %#010x\n", p.Entry)
	fmt.Fprintf(&b, "image: %#010x..%#010x\n", p.ImageBase, p.ImageEnd)
	if p.StackTop != 0 {
		fmt.Fprintf(&b, "stack: %#010x\n", p.StackTop)
	} else {
		fmt.Fprintf(&b, "stack: unrecovered\n")
	}
	fmt.Fprintf(&b, "funcs: %d recovered, %d reachable\n", p.FuncsRecovered, p.FuncsReachable)
	fmt.Fprintf(&b, "registers: %d\n", len(p.Registers))
	for _, r := range p.Registers {
		fmt.Fprintf(&b, "  %#010x %s %s %-11s", r.Addr, rw(r.Read, r.Write), widths(r.Sizes), r.Role)
		if r.Poll {
			fmt.Fprintf(&b, " poll(exit=%#x stall=%#x)", r.Exit, r.Stall)
		}
		fmt.Fprintf(&b, " sites=%d\n", len(r.PCs))
	}
	fmt.Fprintf(&b, "windows: %d\n", len(p.Windows))
	for _, w := range p.Windows {
		fmt.Fprintf(&b, "  %#010x +%#x %s sites=%d\n", w.Base, w.Size, rw(w.Read, w.Write), len(w.PCs))
	}
	fmt.Fprintf(&b, "alloc candidates: %d\n", len(p.Allocs))
	for _, c := range p.Allocs {
		shaped := "-"
		if c.Shaped {
			shaped = "shaped"
		}
		fmt.Fprintf(&b, "  %#010x score=%d %s %s\n", c.Entry, c.Score, shaped, c.Name)
	}
	return b.String()
}

func rw(r, w bool) string {
	s := [2]byte{'-', '-'}
	if r {
		s[0] = 'r'
	}
	if w {
		s[1] = 'w'
	}
	return string(s[:])
}

func widths(sizes []uint32) string {
	parts := make([]string, len(sizes))
	for i, s := range sizes {
		parts[i] = fmt.Sprintf("%d", s)
	}
	return "w" + strings.Join(parts, "/")
}

// sortU32 sorts a slice of addresses in place and drops duplicates.
func sortU32(v []uint32) []uint32 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	out := v[:0]
	var last uint32
	for i, x := range v {
		if i > 0 && x == last {
			continue
		}
		out = append(out, x)
		last = x
	}
	return out
}
