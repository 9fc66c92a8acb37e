package emu

import (
	"runtime"
	"sync/atomic"
	"syscall"
)

// mappedBytes counts the guest RAM bytes held in live mappings.
var mappedBytes atomic.Int64

// ramMapping owns one machine's guest RAM mapping. Nothing the mapping
// holds points back at it, so it becomes unreachable together with its
// machine and its finalizer unmaps the RAM (the os.File pattern). The host
// RAM accessors keep their machine alive across each access with
// runtime.KeepAlive, so no access can outlive the mapping.
type ramMapping struct{ ram []byte }

// newRAM returns size bytes of zeroed guest RAM in an anonymous private
// mapping: the kernel zero-fills each page on first touch, so a machine
// costs only the pages its guest and its snapshots touch. MAP_NORESERVE
// skips the swap reservation for the untouched bulk. If the kernel refuses
// the mapping, the RAM comes from the Go heap instead.
func newRAM(size uint32) ([]byte, *ramMapping) {
	ram, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return make([]byte, size), nil
	}
	mappedBytes.Add(int64(len(ram)))
	r := &ramMapping{ram: ram}
	runtime.SetFinalizer(r, (*ramMapping).unmap)
	return ram, r
}

func (r *ramMapping) unmap() {
	if syscall.Munmap(r.ram) == nil {
		mappedBytes.Add(-int64(len(r.ram)))
	}
}
