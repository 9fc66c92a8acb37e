package emu

import (
	"testing"

	"embsan/internal/isa"
	"embsan/internal/kasm"
)

// loadImage is a minimal loadable image: one exit sequence at the base past
// the null guard, with the given layout overrides applied.
func loadImage(t testing.TB, edit func(img *kasm.Image)) *kasm.Image {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.GlobalRaw("buf", 16)
	b.Func("_start")
	b.Li(rA0, 0)
	exitWith(b)
	img, err := b.Link("load")
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(img)
	}
	return img
}

// TestNewRejectsImagesPastRAM: a section that ends past RAM, however its end
// is computed, is an error from New, never a host panic in the loader; so
// is a RAM size that is not a whole number of pages.
func TestNewRejectsImagesPastRAM(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(img *kasm.Image)
		ok   bool
		ram  uint32
	}{
		{"linked", nil, true, 0},
		{"text past RAM", func(img *kasm.Image) { img.Base = 0x7fff0000 }, false, 0},
		{"data past RAM", func(img *kasm.Image) { img.DataAddr = 0x7fff0000 }, false, 0},
		{"data straddles RAM end", func(img *kasm.Image) {
			img.Data = make([]byte, 32)
			img.DataAddr = DefaultRAMSize - 16
		}, false, 0},
		{"bss past RAM", func(img *kasm.Image) { img.BSSAddr = DefaultRAMSize }, false, 0},
		{"bss end wraps", func(img *kasm.Image) { img.BSSAddr, img.BSSSize = 0x1000, 0xffffff00 }, false, 0},
		{"RAM ends inside a page", nil, false, 1<<20 + 0x800},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(loadImage(t, tc.edit), Config{RAMSize: tc.ram})
			if tc.ok != (err == nil) {
				t.Fatalf("New: err=%v, want ok=%v", err, tc.ok)
			}
			if tc.ok {
				if r := m.Run(10_000); r != StopExit {
					t.Fatalf("stop=%v", r)
				}
			}
		})
	}
}

// FuzzLoadImage: decoding an arbitrary image, loading it and running it
// briefly must never panic the host. Errors and guest faults are fine.
func FuzzLoadImage(f *testing.F) {
	for _, edit := range []func(img *kasm.Image){
		nil,
		func(img *kasm.Image) { img.Base = 0x7fff0000 },
		func(img *kasm.Image) { img.DataAddr = 0x7fff0000 },
		func(img *kasm.Image) { img.BSSAddr, img.BSSSize = 0x1000, 0xffffff00 },
	} {
		raw, err := loadImage(f, edit).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		img, err := kasm.DecodeImage(raw)
		if err != nil {
			return
		}
		m, err := New(img, Config{})
		if err != nil {
			return
		}
		m.Run(10_000)
	})
}
