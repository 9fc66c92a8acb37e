package emu

import (
	"runtime"
	"sync/atomic"
	"syscall"
)

// mappedBytes counts the Memory bytes held in live mappings.
var mappedBytes atomic.Int64

// ramMapping owns one Memory's mapping. Nothing the mapping holds points
// back at it, so it becomes unreachable together with its Memory and its
// finalizer unmaps the bytes (the os.File pattern). Accessors of the bytes
// keep their owner alive with runtime.KeepAlive, so no access can outlive
// the mapping.
type ramMapping struct{ ram []byte }

// newRAM returns size bytes of zeroed memory in an anonymous private
// mapping: the kernel zero-fills each page on first touch, so a Memory
// costs only the pages its writers and its snapshots touch. MAP_NORESERVE
// skips the swap reservation for the untouched bulk. If the kernel refuses
// the mapping, the bytes come from the Go heap instead.
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
