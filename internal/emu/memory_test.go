package emu_test

import (
	"bytes"
	"testing"

	"embsan/internal/emu"
	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/san"
)

// rewindRig is one user of emu.Memory at its block size: guest RAM on a
// machine (4 KiB pages, written by the host accessors) or a sanitizer
// shadow (512-byte blocks, written by Poison and Unpoison). Offsets are
// into the rig's memory: guest addresses for RAM, granules for the shadow.
type rewindRig struct {
	block      uint32
	bytes      func() []byte
	text, data uint32 // offsets of blocks filled before the first Snapshot
	// write applies one window's operation to the block at off and returns
	// the number of blocks it dirtied.
	write    func(t *testing.T, w int, op byte, off uint32) int
	snapshot func()
	restore  func() int
}

// ramRig: a machine on a small image with text and initialised data. RAM
// has no partial page (New rejects such sizes), and the host accessors
// reject a write past RAM or one whose end wraps, so 'p' and 'w' dirty
// nothing here.
func ramRig(t *testing.T) *rewindRig {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.DataBytes("table", bytes.Repeat([]byte{0x5a}, 64))
	b.Func("_start")
	b.HCALL(isa.HcallExit)
	img, err := b.Link("rewind")
	if err != nil {
		t.Fatal(err)
	}
	m, err := emu.New(img, emu.Config{RAMSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if ram := m.RAM(); !bytes.Equal(ram[img.Base:int(img.Base)+len(img.Text)], img.Text) ||
		!bytes.Equal(ram[img.DataAddr:int(img.DataAddr)+len(img.Data)], img.Data) || len(img.Data) == 0 {
		t.Fatal("image not loaded")
	}
	return &rewindRig{
		block: 1 << 12,
		bytes: m.RAM,
		text:  img.Base + 8, data: img.DataAddr,
		write: func(t *testing.T, w int, op byte, off uint32) int {
			size := m.RAMSize()
			var err error
			switch op {
			case 'x':
				err = m.WriteBytes(off, bytes.Repeat([]byte{byte(0x11 * (w + 1))}, 24))
			case 's':
				if err := m.WriteBytes(off-24, bytes.Repeat([]byte{byte(0x11 * (w + 1))}, 48)); err != nil {
					t.Fatal(err)
				}
				return 2
			case '0':
				err = m.WriteBytes(off, make([]byte, min(1<<12, size-off)))
			case 'p':
				if m.WriteBytes(size-8, make([]byte, 16)) == nil {
					t.Fatal("a write past RAM was accepted")
				}
				return 0
			case 'w':
				if m.WriteBytes(0xffff_fff8, make([]byte, 16)) == nil {
					t.Fatal("a write whose end wraps was accepted")
				}
				return 0
			}
			if err != nil {
				t.Fatal(err)
			}
			return 1
		},
		snapshot: m.Snapshot,
		restore: func() int {
			before := m.Counters().RestorePages
			m.Restore()
			return int(m.Counters().RestorePages - before)
		},
	}
}

// shadowRig: a shadow whose last block is partial, with more blocks than
// one word of the dirty set's summary covers. Two blocks are poisoned
// before the first Snapshot, as a sanitizer poisons at boot.
func shadowRig(t *testing.T) *rewindRig {
	s := san.NewShadow(1<<25 + 0x800)
	size := uint32(len(s.Bytes()))
	s.Poison(0x1000, 0x100, san.CodeGlobalRedzone)
	s.Poison(0x3000, 0x40, san.CodeHeapUninit)
	codes := [...]byte{san.CodeStackRedzone, san.CodeGlobalRedzone, san.CodeHeapRedzone, san.CodeHeapFree}
	return &rewindRig{
		block: 512,
		bytes: s.Bytes,
		text:  0x1000 / san.Granularity, data: 0x3000 / san.Granularity,
		write: func(t *testing.T, w int, op byte, off uint32) int {
			switch op {
			case 'x':
				s.Poison(off*san.Granularity, 24*san.Granularity, codes[w])
			case 's':
				s.Poison((off-24)*san.Granularity, 48*san.Granularity, codes[w])
				return 2
			case '0':
				s.Unpoison(off*san.Granularity, min(512, size-off)*san.Granularity)
			case 'p':
				s.Poison((size-4)*san.Granularity, 0x10000, codes[w])
			case 'w':
				addr := (size - 4) * san.Granularity
				s.Poison(addr, -addr+64, codes[w]) // the end wraps to 64: writes nothing
				s.Unpoison(addr, -addr)            // the end wraps to 0: runs to the end
			}
			return 1
		},
		snapshot: s.Snapshot,
		restore:  s.Restore,
	}
}

// TestSparseSnapshot drives one block of each kind, at both block sizes,
// through the same script: operation windows W0..W3 around Snapshot S1,
// Snapshot S2 and Restores R1, R2 (W0 S1 W1 S2 W2 R1 W3 R2). A window's
// letter is its operation on the block: '.' nothing, 'x' a non-zero
// pattern, 's' one that straddles the block's start, '0' zeros over the
// whole block, 'p' a poison that runs past coverage, 'w' ranges whose end
// wraps past 2^32. After each Restore the
// memory must equal a full copy taken at S2, and the Restore must count the
// blocks the window dirtied.
func TestSparseSnapshot(t *testing.T) {
	rigs := []struct {
		name string
		new  func(*testing.T) *rewindRig
	}{{"RAM", ramRig}, {"shadow", shadowRig}}
	for _, tc := range []struct {
		name  string
		block func(r *rewindRig, size uint32) uint32 // the block's offset
		ops   string
	}{
		{"never written", other, "...."},
		{"image text", func(r *rewindRig, _ uint32) uint32 { return r.text }, "..x."},
		{"image data", func(r *rewindRig, _ uint32) uint32 { return r.data }, "..xx"},
		{"written before the first Snapshot", other, "x.x."},
		{"zeroed before the first Snapshot", other, "0.x."},
		{"written between two Snapshots", other, ".xxx"},
		{"zeroed between two Snapshots", other, "x0xx"},
		{"written after a Restore", other, "...x"},
		{"zeroed after the Snapshot", other, "x.0."},
		{"written across two blocks", other, ".x.s"},
		{"partial last block", last, "x.0x"},
		{"poisoned past coverage", last, "p.pp"},
		{"ranges that wrap", last, "x.ww"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, rig := range rigs {
				r, name := rig.new(t), rig.name
				size := uint32(len(r.bytes()))
				blk := tc.block(r, size) &^ (r.block - 1)
				end := min(blk+r.block, size)
				write := func(w int) int {
					switch op := tc.ops[w]; op {
					case '.':
						return 0
					case 'x':
						return r.write(t, w, op, end-24)
					default:
						return r.write(t, w, op, blk)
					}
				}
				write(0)
				r.snapshot()
				write(1)
				r.snapshot()
				ref := bytes.Clone(r.bytes())
				for i, w := range []int{2, 3} {
					want := write(w)
					if got := r.restore(); got != want {
						t.Errorf("%s: R%d rewound %d blocks, want %d", name, i+1, got, want)
					}
					if !bytes.Equal(r.bytes(), ref) {
						t.Fatalf("%s: R%d: memory differs from the copy taken at S2", name, i+1)
					}
				}
			}
		})
	}
}

// other is a block no rig fills before the script starts.
func other(r *rewindRig, _ uint32) uint32 { return 0x40 * r.block }

// last is the rig's last block, partial in the shadow.
func last(_ *rewindRig, size uint32) uint32 { return size - 1 }
