package emu

import (
	"bytes"
	"slices"
	"testing"
)

// TestSparseSnapshot drives one page of each kind through the same script:
// write windows W0..W3 around Snapshot S1, Snapshot S2 and Restores R1, R2
// (W0 S1 W1 S2 W2 R1 W3 R2). A window's letter says what is written to the
// page in it: '.' nothing, 'x' a non-zero pattern, '0' zeros. After each
// Restore all of RAM must equal a full copy taken at S2, and RestorePages
// must count the 4 KiB pages the window dirtied.
func TestSparseSnapshot(t *testing.T) {
	img := loadImage(t, nil)
	const other = 0x40000
	for _, tc := range []struct {
		name   string
		addr   uint32
		writes string
	}{
		{"never written", other, "...."},
		{"image text", img.Base + 8, "..x."},
		{"image data", img.DataAddr, "..xx"},
		{"written before the first Snapshot", other, "x.x."},
		{"zeroed before the first Snapshot", other, "0.x."},
		{"written between two Snapshots", other, ".xxx"},
		{"zeroed between two Snapshots", other, "x0xx"},
		{"written after a Restore", other, "...x"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(img, Config{RAMSize: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			write := func(w int) {
				var b []byte
				switch tc.writes[w] {
				case '.':
					return
				case 'x':
					b = bytes.Repeat([]byte{byte(0x11 * (w + 1))}, 24)
				case '0':
					b = make([]byte, pageSize)
				}
				if err := m.WriteBytes(tc.addr&^(pageSize-1)+pageSize-uint32(len(b)), b); err != nil {
					t.Fatal(err)
				}
			}
			restore := func(r int, ref []byte, w int) {
				before := m.Counters().RestorePages
				m.Restore()
				want := uint64(0)
				if tc.writes[w] != '.' {
					want = 1
				}
				if got := m.Counters().RestorePages - before; got != want {
					t.Errorf("R%d restored %d pages, want %d", r, got, want)
				}
				if !bytes.Equal(m.bus.ram, ref) {
					t.Fatalf("R%d: RAM differs from the copy taken at S2", r)
				}
			}
			write(0)
			m.Snapshot()
			write(1)
			m.Snapshot()
			ref := slices.Clone(m.bus.ram)
			if !bytes.Equal(ref[img.Base:int(img.Base)+len(img.Text)], img.Text) ||
				!bytes.Equal(ref[img.DataAddr:int(img.DataAddr)+len(img.Data)], img.Data) {
				t.Fatal("image not loaded")
			}
			write(2)
			restore(1, ref, 2)
			write(3)
			restore(2, ref, 3)
		})
	}
}

// TestRestorePostAllocFree: rewinding a machine and posting the next input
// allocates nothing, so a replay loop's cost does not include the mailbox.
func TestRestorePostAllocFree(t *testing.T) {
	m, err := New(loadImage(t, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Snapshot()
	input := []byte("fuzz input")
	if n := testing.AllocsPerRun(100, func() {
		m.Restore()
		m.Mailbox.Post(input)
	}); n != 0 {
		t.Errorf("Restore+Post allocates %v times per run, want 0", n)
	}
}
