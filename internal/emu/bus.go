// Package emu is the full-system emulator EMBSAN attaches to. It models the
// role QEMU/TCG plays in the paper: guest code is decoded into translation
// blocks, instrumentation probes are inserted into the translation templates
// exactly where a registered probe set asks for them, and hypercalls give
// compile-time-instrumented firmware a direct trap into the host.
package emu

import (
	"encoding/binary"
	"fmt"

	"embsan/internal/obs"
)

// Physical memory map. RAM occupies [0, RAMSize); the first page is never
// mapped, giving a NULL guard page; devices live high in the address space.
const (
	NullGuardSize = 0x1000

	MMIOBase    = 0xF000_0000
	UARTBase    = 0xF000_0000
	MailboxBase = 0xF000_2000
	MailboxData = 0xF000_3000
	MailboxSize = 0x1000
	TestDevBase = 0xF000_4000
	SanDevBase  = 0xF000_5000

	pageShift = 12
	pageSize  = 1 << pageShift
)

// FaultKind classifies a bus fault.
type FaultKind uint8

const (
	FaultNone FaultKind = iota
	FaultNullDeref
	FaultUnmapped
	FaultBadFetch
	FaultIllegalInst
	FaultBreakpoint
)

func (k FaultKind) String() string {
	switch k {
	case FaultNullDeref:
		return "null-pointer dereference"
	case FaultUnmapped:
		return "access to unmapped address"
	case FaultBadFetch:
		return "instruction fetch fault"
	case FaultIllegalInst:
		return "illegal instruction"
	case FaultBreakpoint:
		return "breakpoint"
	}
	return "no fault"
}

// Fault describes a guest hardware fault (what a crash looks like without a
// sanitizer: the raw oracle fuzzers fall back to).
type Fault struct {
	Kind FaultKind
	Hart int
	PC   uint32
	Addr uint32
}

func (f *Fault) Error() string {
	return fmt.Sprintf("guest fault: %s at pc=%#x addr=%#x (hart %d)", f.Kind, f.PC, f.Addr, f.Hart)
}

// Device is a memory-mapped peripheral.
type Device interface {
	Name() string
	// Contains reports whether the device decodes addr.
	Contains(addr uint32) bool
	Read(addr, size uint32) uint32
	Write(addr, size, val uint32)
	Reset()
}

// bus performs all data accesses: RAM with dirty-page tracking, MMIO
// dispatch, and NULL/unmapped fault generation.
type bus struct {
	ram     Memory // guest RAM in 4 KiB blocks
	big     bool   // guest byte order is big-endian (MIPS32E)
	devices []Device

	// MMIO dispatch accounting (accesses that reached a device), surfaced
	// as Counters.DeviceReads/DeviceWrites.
	devReads, devWrites *obs.Counter
}

func (b *bus) inRAM(addr, size uint32) bool {
	return addr >= NullGuardSize && uint64(addr)+uint64(size) <= uint64(len(b.ram.bytes))
}

func (b *bus) device(addr uint32) Device {
	for _, d := range b.devices {
		if d.Contains(addr) {
			return d
		}
	}
	return nil
}

// read returns the value at addr. A non-nil fault kind signals a bus error.
func (b *bus) read(addr, size uint32) (uint32, FaultKind) {
	if b.inRAM(addr, size) {
		switch {
		case size == 1:
			return uint32(b.ram.bytes[addr]), FaultNone
		case size == 2 && b.big:
			return uint32(binary.BigEndian.Uint16(b.ram.bytes[addr:])), FaultNone
		case size == 2:
			return uint32(binary.LittleEndian.Uint16(b.ram.bytes[addr:])), FaultNone
		case b.big:
			return binary.BigEndian.Uint32(b.ram.bytes[addr:]), FaultNone
		}
		return binary.LittleEndian.Uint32(b.ram.bytes[addr:]), FaultNone
	}
	if addr >= MMIOBase {
		if d := b.device(addr); d != nil {
			b.devReads.Inc()
			return d.Read(addr, size), FaultNone
		}
		return 0, FaultUnmapped
	}
	if addr < NullGuardSize {
		return 0, FaultNullDeref
	}
	return 0, FaultUnmapped
}

func (b *bus) write(addr, size, val uint32) FaultKind {
	if b.inRAM(addr, size) {
		b.ram.MarkDirty(addr, size)
		switch {
		case size == 1:
			b.ram.bytes[addr] = byte(val)
		case size == 2 && b.big:
			binary.BigEndian.PutUint16(b.ram.bytes[addr:], uint16(val))
		case size == 2:
			binary.LittleEndian.PutUint16(b.ram.bytes[addr:], uint16(val))
		case b.big:
			binary.BigEndian.PutUint32(b.ram.bytes[addr:], val)
		default:
			binary.LittleEndian.PutUint32(b.ram.bytes[addr:], val)
		}
		return FaultNone
	}
	if addr >= MMIOBase {
		if d := b.device(addr); d != nil {
			b.devWrites.Inc()
			d.Write(addr, size, val)
			return FaultNone
		}
		return FaultUnmapped
	}
	if addr < NullGuardSize {
		return FaultNullDeref
	}
	return FaultUnmapped
}
