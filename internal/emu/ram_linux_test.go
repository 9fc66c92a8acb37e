package emu_test

import (
	"runtime"
	"testing"
	"time"

	"embsan/internal/core"
	"embsan/internal/emu"
	"embsan/internal/guest/firmware"
)

// TestRAMMappingsReleased: a dropped deployment's guest RAM and shadow
// mappings are unmapped once the collector finds them unreachable.
func TestRAMMappingsReleased(t *testing.T) {
	fw, err := firmware.Build("InfiniTime")
	if err != nil {
		t.Fatal(err)
	}
	// Let mappings dropped by earlier tests go first, so none is released
	// while this test counts its own.
	base := int64(-1)
	for now := emu.MappedBytes(); now != base; now = emu.MappedBytes() {
		base = now
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	const n = 64
	live := make([]*core.Instance, n)
	for i := range live {
		inst, err := core.New(core.Config{Image: fw.Image, Sanitizers: []string{"kasan"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Boot(200_000_000); err != nil {
			t.Fatal(err)
		}
		inst.Snapshot()
		inst.Exec(fw.Seeds[0], 1_000_000)
		inst.Restore()
		live[i] = inst
	}
	const each = emu.DefaultRAMSize + emu.DefaultRAMSize/8 // RAM and its shadow
	if got := emu.MappedBytes(); got < base+n*each {
		t.Fatalf("%d live deployments map %d bytes, want at least %d", n, got-base, n*each)
	}
	runtime.KeepAlive(live)
	for deadline := time.Now().Add(10 * time.Second); emu.MappedBytes() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped after the deployments were dropped", emu.MappedBytes()-base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
