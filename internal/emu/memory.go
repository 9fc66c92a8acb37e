package emu

import (
	"bytes"
	"math/bits"
	"runtime"
)

// Memory is rewindable memory: guest RAM in 4 KiB blocks, the sanitizer
// shadow in 512-byte blocks (one per guest page). Writers mark the blocks
// they write (MarkDirty); Restore rewinds only those, so a rewind costs
// what a run dirtied, not what the memory holds. On linux the bytes are a
// mapping outside the Go heap that its owner's finalizer unmaps, so whoever
// keeps a slice of them must keep the Memory.
type Memory struct {
	bytes    []byte
	owner    *ramMapping // owns bytes' mapping; nil when they are on the Go heap
	shift    uint        // log2 of the block size
	dirty    blockSet    // the blocks written since the last Snapshot or Restore
	last     uint32      // a block in dirty, or noBlock
	pristine [][]byte    // the restore point, one entry per block; nil = all zeros
}

// noBlock is no block's number: a Memory has fewer than 2^32-1 blocks.
const noBlock = ^uint32(0)

// zeros is the content of every block the restore point keeps as nil.
var zeros [pageSize]byte

// NewMemory returns size bytes of zeroed memory in blocks of 1<<blockShift
// bytes, at most 4 KiB; the last block may be partial. Until the first
// Snapshot the restore point is all zeros. A Memory must not be copied
// once used.
func NewMemory(size uint32, blockShift uint) Memory {
	blocks := int((uint64(size) + 1<<blockShift - 1) >> blockShift)
	mem := Memory{shift: blockShift, dirty: newBlockSet(blocks), last: noBlock, pristine: make([][]byte, blocks)}
	mem.bytes, mem.owner = newRAM(size)
	return mem
}

// Bytes returns the live bytes. A writer must MarkDirty what it writes.
func (mem *Memory) Bytes() []byte { return mem.bytes }

// MarkDirty records a write to [off, off+n), which must be non-empty and
// lie inside the memory. A write inside the block it marked last marks
// nothing: that block stays dirty until the next Snapshot or Restore.
func (mem *Memory) MarkDirty(off, n uint32) {
	s := mem.shift & 31 // spares the store path the oversized-shift check
	b, last := off>>s, (off+n-1)>>s
	if b == mem.last && last == b {
		return
	}
	for ; b <= last; b++ {
		mem.dirty.add(b)
	}
	mem.last = last
}

// block returns block b (short if the memory ends inside it).
func (mem *Memory) block(b uint32) []byte {
	off := int(b) << mem.shift
	return mem.bytes[off:min(off+1<<mem.shift, len(mem.bytes))]
}

// Snapshot makes the current contents the restore point. Only the blocks
// marked since the last Snapshot or Restore can differ from the previous
// restore point, so only those are copied; all-zero blocks are kept as nil.
func (mem *Memory) Snapshot() {
	mem.last = noBlock
	mem.dirty.drain(func(b uint32) {
		if blk := mem.block(b); bytes.Equal(blk, zeros[:len(blk)]) {
			mem.pristine[b] = nil
		} else {
			mem.pristine[b] = append(mem.pristine[b][:0], blk...)
		}
	})
	runtime.KeepAlive(mem)
}

// Restore rewinds the blocks marked since the last Snapshot or Restore to
// the restore point and returns how many it rewound.
func (mem *Memory) Restore() int {
	mem.last = noBlock
	n := mem.dirty.drain(func(b uint32) {
		if p := mem.pristine[b]; p != nil {
			copy(mem.block(b), p)
		} else {
			clear(mem.block(b))
		}
	})
	runtime.KeepAlive(mem)
	return n
}

// blockSet is a set of block or page numbers in a two-level bitmap, so
// draining it costs its members, not its capacity.
type blockSet struct {
	bits  []uint64 // one bit per member
	words []uint64 // one bit per non-zero word of bits
}

func newBlockSet(n int) blockSet {
	w := (n + 63) / 64
	return blockSet{bits: make([]uint64, w), words: make([]uint64, (w+63)/64)}
}

func (s *blockSet) add(b uint32) {
	s.bits[b>>6] |= 1 << (b & 63)
	s.words[b>>12] |= 1 << (b >> 6 & 63)
}

// drain calls fn for every member in ascending order, empties the set and
// returns the number of members.
func (s *blockSet) drain(fn func(b uint32)) int {
	n := 0
	for i, sw := range s.words {
		for ; sw != 0; sw &= sw - 1 {
			wi := i*64 + bits.TrailingZeros64(sw)
			for w := s.bits[wi]; w != 0; w &= w - 1 {
				fn(uint32(wi*64 + bits.TrailingZeros64(w)))
				n++
			}
			s.bits[wi] = 0
		}
		s.words[i] = 0
	}
	return n
}
