package emu

import (
	"runtime"
	"testing"
	"time"
)

// TestRAMMappingsReleased: a dropped machine's RAM mapping is unmapped once
// the collector finds the machine unreachable.
func TestRAMMappingsReleased(t *testing.T) {
	img := loadImage(t, nil)
	// Let machines dropped by earlier tests go first, so none is released
	// while this test counts its own.
	base := int64(-1)
	for now := mappedBytes.Load(); now != base; now = mappedBytes.Load() {
		base = now
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	live := make([]*Machine, 64)
	for i := range live {
		m, err := New(img, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if m.bus.mem == nil {
			t.Fatal("guest RAM is not mapped")
		}
		m.Run(10_000)
		m.Snapshot()
		live[i] = m
	}
	if got := mappedBytes.Load(); got < base+64*DefaultRAMSize {
		t.Fatalf("64 live machines map %d bytes, want at least %d", got-base, 64*DefaultRAMSize)
	}
	runtime.KeepAlive(live)
	for deadline := time.Now().Add(10 * time.Second); mappedBytes.Load() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped after the machines were dropped", mappedBytes.Load()-base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
