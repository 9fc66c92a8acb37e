// Package san is EMBSAN's Common Sanitizer Runtime: de-coupled, on-host
// implementations of the KASAN and KCSAN feature sets, driven by the
// emulator's instrumentation probes (EMBSAN-D) or by trapping SANCK
// instructions and dummy-library hypercalls (EMBSAN-C). All sanitizer
// functionalities share one unified shadow memory.
package san

import (
	"fmt"
	"runtime"

	"embsan/internal/emu"
	"embsan/internal/obs"
)

// Granularity is the shadow granule size: one shadow byte per 8 guest bytes,
// matching KASAN's generic mode.
const Granularity = 8

// Shadow byte values. 0 means the whole granule is addressable; 1..7 mean
// the first N bytes are addressable; values >= 0x80 are poison codes.
// These values are shared with the in-guest native KASAN runtime so both
// implementations speak the same shadow encoding.
const (
	CodeStackRedzone  byte = 0xF8
	CodeGlobalRedzone byte = 0xF9
	CodeHeapRedzone   byte = 0xFA
	CodeHeapFree      byte = 0xFB
	CodeHeapUninit    byte = 0xFC // heap memory never handed out by the allocator
	CodeNull          byte = 0xFE
)

// IsPoison reports whether a shadow byte is a poison code.
func IsPoison(b byte) bool { return b >= 0x80 }

// CodeName returns a human-readable poison code name (as used in the DSL).
func CodeName(b byte) string {
	switch b {
	case CodeStackRedzone:
		return "stack_redzone"
	case CodeGlobalRedzone:
		return "global_redzone"
	case CodeHeapRedzone:
		return "heap_redzone"
	case CodeHeapFree:
		return "heap_free"
	case CodeHeapUninit:
		return "heap_uninit"
	case CodeNull:
		return "null"
	}
	return fmt.Sprintf("code_%#02x", b)
}

// CodeByName is the inverse of CodeName for the DSL poison codes.
func CodeByName(name string) (byte, bool) {
	switch name {
	case "stack_redzone":
		return CodeStackRedzone, true
	case "global_redzone":
		return CodeGlobalRedzone, true
	case "heap_redzone", "heap":
		return CodeHeapRedzone, true
	case "heap_free":
		return CodeHeapFree, true
	case "heap_uninit":
		return CodeHeapUninit, true
	case "null":
		return CodeNull, true
	}
	return 0, false
}

// Shadow is the unified shadow memory covering all of guest RAM. It records
// addressability state for every sanitizer functionality in one place,
// conserving host memory and keeping the DSL-to-state transformation simple.
// Its bytes are an emu.Memory, rewound with the machine like guest RAM.
type Shadow struct {
	mem   *emu.Memory
	bytes []byte // mem's bytes

	// Optional trace sink. clock supplies the virtual timestamp (the
	// machine's instruction counter); both are nil unless tracing is on.
	trace *obs.Ring
	clock func() uint64
}

// NewShadow creates shadow memory covering ramSize guest bytes, rewound in
// 512-byte blocks: one per 4 KiB guest page.
func NewShadow(ramSize uint32) *Shadow {
	mem := emu.NewMemory(ramSize/Granularity, 9)
	return &Shadow{mem: &mem, bytes: mem.Bytes()}
}

// Bytes exposes the live shadow byte array (one byte per 8-byte granule).
// Callers must never write to it, and must keep the Shadow while they
// hold it.
func (s *Shadow) Bytes() []byte { return s.bytes }

// Snapshot makes the current shadow the restore point.
func (s *Shadow) Snapshot() { s.mem.Snapshot() }

// Restore rewinds the shadow to the restore point, copying back only the
// blocks Poison or Unpoison wrote since the last Snapshot or Restore, and
// returns how many it rewound.
func (s *Shadow) Restore() int { return s.mem.Restore() }

// markWritten marks the granules [first, last] for the caller to write,
// clamped to coverage (a guest allocator can hand out a range past RAM, or
// one whose end wraps past 2^32), and returns the end of the clamped range.
func (s *Shadow) markWritten(first, last uint32) (end uint32) {
	end = min(last+1, uint32(len(s.bytes)))
	if first < end {
		s.mem.MarkDirty(first, end-first)
	}
	return end
}

// SetTrace attaches (or, with nil arguments, detaches) a trace ring and the
// virtual clock that timestamps poison/unpoison events.
func (s *Shadow) SetTrace(r *obs.Ring, clock func() uint64) {
	s.trace = r
	s.clock = clock
}

// Poison marks [addr, addr+size) with the given poison code. Partial leading
// granules keep their validity prefix; partial trailing granules are wholly
// poisoned (conservative, like KASAN's kasan_poison).
func (s *Shadow) Poison(addr, size uint32, code byte) {
	if size == 0 {
		return
	}
	if s.trace != nil {
		s.trace.Emit(obs.Event{ICnt: s.clock(), PC: uint32(code), Addr: addr, Arg: size, Kind: obs.EvPoison})
	}
	end := addr + size
	first := addr / Granularity
	stop := s.markWritten(first, (end-1)/Granularity)
	for g := first; g < stop; g++ {
		gStart := g * Granularity
		if gStart < addr {
			// Leading partial granule: the first addr-gStart bytes stay
			// addressable only if they were before.
			prev := s.bytes[g]
			valid := uint32(0)
			if prev == 0 {
				valid = Granularity
			} else if prev < Granularity {
				valid = uint32(prev)
			}
			if keep := addr - gStart; keep < valid {
				valid = keep
			}
			if valid == 0 {
				s.bytes[g] = code
			} else {
				s.bytes[g] = byte(valid)
			}
			continue
		}
		s.bytes[g] = code
	}
	runtime.KeepAlive(s)
}

// Unpoison marks [addr, addr+size) addressable. A trailing partial granule
// records the number of valid bytes, enabling sub-granule redzone checks.
// As in Poison, a range that ends exactly at 2^32 runs to the end of
// coverage, and one whose end wraps further writes nothing.
func (s *Shadow) Unpoison(addr, size uint32) {
	if size == 0 {
		return
	}
	if s.trace != nil {
		s.trace.Emit(obs.Event{ICnt: s.clock(), Addr: addr, Arg: size, Kind: obs.EvUnpoison})
	}
	end := uint64(addr) + uint64(size)
	first := addr / Granularity
	stop := s.markWritten(first, uint32(end-1)/Granularity)
	for g := first; g < stop; g++ {
		gStart := uint64(g) * Granularity
		if gStart+Granularity <= end {
			s.bytes[g] = 0
			continue
		}
		s.bytes[g] = byte(end - gStart)
	}
	runtime.KeepAlive(s)
}

// Get returns the shadow byte for addr.
func (s *Shadow) Get(addr uint32) byte {
	g := addr / Granularity
	if g >= uint32(len(s.bytes)) {
		return 0
	}
	sb := s.bytes[g]
	runtime.KeepAlive(s)
	return sb
}

// Check validates an access of size bytes at addr. It returns ok=true when
// every byte is addressable; otherwise it returns the first offending
// address and its shadow code.
func (s *Shadow) Check(addr, size uint32) (badAddr uint32, code byte, ok bool) {
	if size == 0 {
		return 0, 0, true
	}
	end := addr + size
	for a := addr; a < end; {
		g := a / Granularity
		if g >= uint32(len(s.bytes)) {
			return a, 0, true // outside shadow coverage: not ours to judge
		}
		sb := s.bytes[g]
		runtime.KeepAlive(s)
		gStart := g * Granularity
		switch {
		case sb == 0:
			a = gStart + Granularity
		case sb < Granularity:
			// First sb bytes of the granule are valid.
			validEnd := gStart + uint32(sb)
			if a < validEnd {
				if end <= validEnd {
					return 0, 0, true
				}
				a = validEnd
				continue
			}
			// Access touches the invalid tail: the poison kind is whatever
			// the *next* region's code is, best described as a redzone hit;
			// report the granule's implicit redzone.
			return a, s.tailCode(g), false
		default:
			return a, sb, false
		}
	}
	return 0, 0, true
}

// tailCode guesses the poison kind of a partial granule's invalid tail by
// looking at the following granule (which carries the explicit code).
func (s *Shadow) tailCode(g uint32) byte {
	code := CodeHeapRedzone
	if g+1 < uint32(len(s.bytes)) && IsPoison(s.bytes[g+1]) {
		code = s.bytes[g+1]
	}
	runtime.KeepAlive(s)
	return code
}
