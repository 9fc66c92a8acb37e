// Package kasm is the EVA32 firmware toolchain: a structured code builder,
// a two-pass text assembler, a linker, and the compile-time sanitizer
// instrumentation passes that produce EMBSAN-C and natively-sanitized
// firmware images.
//
// The builder is the primary interface — the guest operating systems in
// internal/guest are written against it — while the text assembler
// (cmd/evasm) parses classic assembly source into the same builder calls.
package kasm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"embsan/internal/isa"
)

// SanitizeMode selects the compile-time instrumentation applied by the
// toolchain. It is a property of the *build*, matching the firmware
// categories of the paper: EMBSAN-D firmware is built with SanNone, while
// EMBSAN-C firmware is built with SanEmbsanC against the trapping dummy
// sanitizer library.
type SanitizeMode uint8

const (
	// SanNone builds plain firmware (the EMBSAN-D input).
	SanNone SanitizeMode = iota
	// SanEmbsanC inserts one trapping SANCK instruction before every memory
	// access and lays out redzones around global objects; allocator
	// annotations become hypercalls into the dummy sanitizer library.
	SanEmbsanC
	// SanNativeKASAN expands every memory access into an in-guest shadow
	// memory check (the reference KASAN baseline of the evaluation).
	SanNativeKASAN
	// SanNativeKCSAN expands every memory access into an in-guest
	// watchpoint check (the reference KCSAN baseline).
	SanNativeKCSAN
)

func (m SanitizeMode) String() string {
	switch m {
	case SanNone:
		return "none"
	case SanEmbsanC:
		return "embsan-c"
	case SanNativeKASAN:
		return "native-kasan"
	case SanNativeKCSAN:
		return "native-kcsan"
	}
	return fmt.Sprintf("sanmode%d", m)
}

// Reserved registers in sanitized builds. Code built with any mode other
// than SanNone must not use these; the builder enforces it.
var reservedRegs = [...]uint8{isa.RegK0, isa.RegK1, isa.RegK2}

// Names of the guest-side sanitizer runtime entry points that natively
// sanitized builds call. The glib guest library provides them.
const (
	SymKasanLoad1  = "__kasan_load1"
	SymKasanLoad2  = "__kasan_load2"
	SymKasanLoad4  = "__kasan_load4"
	SymKasanStore1 = "__kasan_store1"
	SymKasanStore2 = "__kasan_store2"
	SymKasanStore4 = "__kasan_store4"
	SymKcsanLoad   = "__kcsan_load"
	SymKcsanStore  = "__kcsan_store"

	// SymKasanGlobalTable is the compile-time-generated table of sanitized
	// global objects: count word followed by (addr, size, redzone) triples.
	SymKasanGlobalTable = "__kasan_global_table"
)

// GlobalRedzone is the redzone placed on each side of a global object in
// redzone-capable builds (EMBSAN-C and native KASAN).
const GlobalRedzone = 32

// SymKind distinguishes function from object symbols.
type SymKind uint8

const (
	SymFunc SymKind = iota
	SymObject
)

// Symbol is one linked symbol.
type Symbol struct {
	Name string
	Addr uint32
	Size uint32
	Kind SymKind
}

// GlobalMeta records a redzoned global object for the EMBSAN-C metadata
// side-channel (the host runtime poisons the redzones from it).
type GlobalMeta struct {
	Name    string
	Addr    uint32 // start of the object payload (after the left redzone)
	Size    uint32
	Redzone uint32
}

// AddrRange is a half-open address range [Start, End).
type AddrRange struct {
	Start uint32
	End   uint32
}

// Contains reports whether addr falls inside the range.
func (r AddrRange) Contains(addr uint32) bool { return addr >= r.Start && addr < r.End }

// Metadata is the build side-channel an EMBSAN-C build ships next to the
// image. EMBSAN-D firmware has none of this (that is the point).
type Metadata struct {
	Sanitize    SanitizeMode
	Globals     []GlobalMeta // redzoned globals (EMBSAN-C only)
	AllocFuncs  []string     // annotated allocator entry points
	FreeFuncs   []string
	ReadyMarked bool // the build contains a ready-to-run hypercall

	// NoSanRegions are the text ranges built under Builder.NoSan, i.e. with
	// compile-time instrumentation deliberately suppressed (allocator
	// internals, the sanitizer runtime itself). The static lint consults
	// them: memory accesses inside these ranges legitimately carry no SANCK.
	NoSanRegions []AddrRange
}

// InNoSan reports whether addr lies in a recorded NoSan region.
func (m *Metadata) InNoSan(addr uint32) bool {
	for _, r := range m.NoSanRegions {
		if r.Contains(addr) {
			return true
		}
	}
	return false
}

// Image is a linked firmware image.
type Image struct {
	Name     string
	Arch     isa.Arch
	Base     uint32 // load address of the text section
	Entry    uint32
	Text     []byte // encoded instructions
	Data     []byte // initialised data, loaded at DataAddr
	DataAddr uint32
	BSSAddr  uint32
	BSSSize  uint32
	Symbols  []Symbol // sorted by Addr; nil for stripped (closed-source) images
	Meta     Metadata
	Stripped bool
}

// TextEnd returns the first address past the text section.
func (img *Image) TextEnd() uint32 { return img.Base + uint32(len(img.Text)) }

// MemTop returns the first address past everything the image occupies.
func (img *Image) MemTop() uint32 { return img.BSSAddr + img.BSSSize }

// Strip returns a copy of the image with all symbol information removed,
// modelling closed-source binary-only firmware distribution.
func (img *Image) Strip() *Image {
	out := *img
	out.Symbols = nil
	out.Stripped = true
	out.Meta = Metadata{Sanitize: img.Meta.Sanitize}
	return &out
}

// Lookup returns the symbol with the given name.
func (img *Image) Lookup(name string) (Symbol, bool) {
	for _, s := range img.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// Symbolize resolves addr to "name+0xoff" form, or a raw hex address for
// stripped images — which is exactly how reports from closed firmware look.
func (img *Image) Symbolize(addr uint32) string {
	i := sort.Search(len(img.Symbols), func(i int) bool {
		return img.Symbols[i].Addr > addr
	})
	for j := i - 1; j >= 0; j-- {
		s := img.Symbols[j]
		if addr >= s.Addr && (s.Size == 0 || addr < s.Addr+s.Size) {
			if addr == s.Addr {
				return s.Name
			}
			return fmt.Sprintf("%s+%#x", s.Name, addr-s.Addr)
		}
		if s.Size != 0 {
			break
		}
	}
	return fmt.Sprintf("%#08x", addr)
}

// FuncAt returns the function symbol containing addr.
func (img *Image) FuncAt(addr uint32) (Symbol, bool) {
	i := sort.Search(len(img.Symbols), func(i int) bool {
		return img.Symbols[i].Addr > addr
	})
	for j := i - 1; j >= 0; j-- {
		s := img.Symbols[j]
		if s.Kind == SymFunc && addr >= s.Addr && addr < s.Addr+s.Size {
			return s, true
		}
	}
	return Symbol{}, false
}

// Encode serialises the image (gob).
func (img *Image) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("kasm: encode image: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeImage deserialises an image produced by Encode.
func DecodeImage(b []byte) (*Image, error) {
	var img Image
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&img); err != nil {
		return nil, fmt.Errorf("kasm: decode image: %w", err)
	}
	return &img, nil
}
