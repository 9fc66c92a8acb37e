package san

import (
	"bytes"
	"testing"
)

// Table-driven edge cases for the unified shadow: zero-size accesses,
// accesses straddling a redzone boundary, the last addressable byte of RAM,
// and snapshot round-trips of poisoned state.
func TestShadowEdgeCases(t *testing.T) {
	const ram = 1 << 16
	tests := []struct {
		name    string
		prep    func(s *Shadow)
		addr    uint32
		size    uint32
		wantOK  bool
		wantBad uint32 // checked only when !wantOK
	}{
		{
			name:   "zero-size access on poisoned memory is ok",
			prep:   func(s *Shadow) { s.Poison(0x100, 64, CodeHeapRedzone) },
			addr:   0x100,
			size:   0,
			wantOK: true,
		},
		{
			name:   "zero-size poison is a no-op",
			prep:   func(s *Shadow) { s.Poison(0x100, 0, CodeHeapRedzone) },
			addr:   0x100,
			size:   8,
			wantOK: true,
		},
		{
			name:   "zero-size unpoison is a no-op",
			prep:   func(s *Shadow) { s.Poison(0x100, 8, CodeHeapFree); s.Unpoison(0x100, 0) },
			addr:   0x100,
			size:   1,
			wantOK: false, wantBad: 0x100,
		},
		{
			name: "read up to the redzone boundary is ok",
			prep: func(s *Shadow) {
				s.Unpoison(0x200, 48)
				s.Poison(0x200+48, 16, CodeHeapRedzone)
			},
			addr:   0x200,
			size:   48,
			wantOK: true,
		},
		{
			name: "read straddling the redzone boundary reports the first redzone byte",
			prep: func(s *Shadow) {
				s.Unpoison(0x200, 48)
				s.Poison(0x200+48, 16, CodeHeapRedzone)
			},
			addr:   0x200 + 44,
			size:   8,
			wantOK: false, wantBad: 0x200 + 48,
		},
		{
			name: "straddle out of a sub-granule valid prefix",
			prep: func(s *Shadow) {
				// 13 valid bytes: granule 1 of the object keeps a validity
				// prefix of 5; byte 13 onward is an implicit redzone tail.
				s.Poison(0x300, 32, CodeHeapRedzone)
				s.Unpoison(0x300, 13)
			},
			addr:   0x300 + 10,
			size:   8,
			wantOK: false, wantBad: 0x300 + 13,
		},
		{
			name:   "last addressable byte of RAM is ok",
			prep:   func(s *Shadow) { s.Unpoison(ram-Granularity, Granularity) },
			addr:   ram - 1,
			size:   1,
			wantOK: true,
		},
		{
			name:   "poison covering the final granule flags the last byte",
			prep:   func(s *Shadow) { s.Poison(ram-Granularity, Granularity, CodeGlobalRedzone) },
			addr:   ram - 1,
			size:   1,
			wantOK: false, wantBad: ram - 1,
		},
		{
			name:   "access beyond shadow coverage is not judged",
			prep:   func(s *Shadow) {},
			addr:   ram + 64,
			size:   4,
			wantOK: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := NewShadow(ram)
			tc.prep(s)
			bad, code, ok := s.Check(tc.addr, tc.size)
			if ok != tc.wantOK {
				t.Fatalf("Check(%#x, %d): ok=%v code=%s, want ok=%v", tc.addr, tc.size, ok, CodeName(code), tc.wantOK)
			}
			if !ok && bad != tc.wantBad {
				t.Errorf("Check(%#x, %d): badAddr=%#x, want %#x", tc.addr, tc.size, bad, tc.wantBad)
			}
		})
	}
}

// TestShadowSnapshotRoundTripPoisoned: snapshotting a shadow with poisoned
// and partially valid granules and restoring it reproduces every verdict,
// including after the live shadow diverges.
func TestShadowSnapshotRoundTripPoisoned(t *testing.T) {
	const ram = 1 << 14
	s := NewShadow(ram)
	s.Poison(0x400, 128, CodeHeapRedzone)
	s.Unpoison(0x400, 29) // partial granule prefix
	s.Poison(ram-Granularity, Granularity, CodeStackRedzone)

	s.Snapshot()
	snap := bytes.Clone(s.Bytes())

	verdict := func(sh *Shadow) [4]byte {
		var out [4]byte
		probes := []struct{ addr, size uint32 }{
			{0x400, 29}, {0x400 + 28, 4}, {ram - 1, 1}, {0x400 + 64, 8},
		}
		for i, p := range probes {
			_, code, ok := sh.Check(p.addr, p.size)
			if ok {
				out[i] = 0
			} else if code == 0 {
				out[i] = 1
			} else {
				out[i] = code
			}
		}
		return out
	}
	want := verdict(s)

	// Diverge the live shadow, then restore.
	s.Unpoison(0, ram)
	if got := verdict(s); got == want {
		t.Fatal("divergence probe did not change any verdict; test is vacuous")
	}
	s.Restore()
	if got := verdict(s); got != want {
		t.Errorf("verdicts after restore = %v, want %v", got, want)
	}

	// The restore point must be unaffected by mutations to the live shadow.
	s.Poison(0x400, 64, CodeHeapFree)
	s.Restore()
	if got := verdict(s); got != want || !bytes.Equal(s.Bytes(), snap) {
		t.Errorf("restore point mutated through the live shadow: %v, want %v", got, want)
	}
}
