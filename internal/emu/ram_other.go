//go:build !linux

package emu

// ramMapping is unused off linux: Memory bytes live on the Go heap.
type ramMapping struct{}

// newRAM returns size bytes of zeroed memory.
func newRAM(size uint32) ([]byte, *ramMapping) { return make([]byte, size), nil }
