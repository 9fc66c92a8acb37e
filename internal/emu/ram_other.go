//go:build !linux

package emu

// ramMapping is unused off linux: guest RAM lives on the Go heap.
type ramMapping struct{}

// newRAM returns size bytes of zeroed guest RAM.
func newRAM(size uint32) ([]byte, *ramMapping) { return make([]byte, size), nil }
