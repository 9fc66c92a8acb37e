package core

import (
	"runtime"
	"testing"

	"embsan/internal/guest/firmware"
)

// footprintLimit bounds the Go allocation of one deployment. The shadow
// alone (2 MiB) would exceed it if it came back onto the heap.
var footprintLimit uint64 = 1 << 20

// TestDeploymentFootprint: deploying a registry firmware (New, Boot,
// Snapshot) allocates for the guest memory it touches, not for the 16 MiB
// it could address: no RAM- or shadow-sized buffer on the Go heap, no full
// RAM or shadow copy.
func TestDeploymentFootprint(t *testing.T) {
	fw, err := firmware.Build("OpenWRT-armvirt")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inst, err := New(Config{Image: fw.Image, Sanitizers: []string{"kasan"}, StopOnReport: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Boot(200_000_000); err != nil {
		t.Fatal(err)
	}
	inst.Snapshot()
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("New+Boot+Snapshot allocated %.1f MiB", float64(grew)/(1<<20))
	if grew >= footprintLimit {
		t.Errorf("want under %.1f MiB", float64(footprintLimit)/(1<<20))
	}
}
