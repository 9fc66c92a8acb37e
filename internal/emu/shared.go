package emu

import (
	"sync"

	"embsan/internal/kasm"
)

// Process-global shared translation cache. A worker pool runs many machines
// over the same firmware; decoding each block once per machine is pure waste,
// so machines publish their translations here and consume each other's.
//
// Safety rests on three restrictions:
//
//   - Entries are keyed by the image's content digest and by a signature of
//     everything translation reads besides the code bytes (probe presence,
//     safe/elided/hook PC sets, inline arming and its quiet ranges, RAM
//     size). Two machines with equal keys produce bit-identical step
//     slices, so whose translation a machine ends up with is unobservable.
//   - Only blocks whose whole page lies inside the image's text segment are
//     shared, and only while the consuming/publishing machine's pageGen for
//     that page is 0 — i.e. the page still holds pristine image bytes. Self-
//     modifying or data-resident code never enters the cache.
//   - Entries are immutable after publication. The mutable per-machine parts
//     of a tb (generation stamps, chain links) live in a machine-local
//     wrapper; only the decoded steps and static successor PCs are shared.
//
// Which machine translates first — and therefore who publishes and who
// consumes — is schedule-dependent, so the shared-hit counter is a
// diagnostic and must never feed a byte-compared artifact.

// sharedTB is the immutable published form of a translation block.
type sharedTB struct {
	steps     []step
	succTaken uint32
	succFall  uint32
}

type sharedKey struct {
	sig uint64
	pc  uint32
}

// maxSharedBlocks bounds one image's cache. Text segments are a few
// thousand blocks at most; the cap only guards against a pathological
// signature churn filling the process with dead entries. Insertion simply
// stops at the cap — eviction would thrash exactly when the cap matters.
const maxSharedBlocks = 1 << 14

type sharedImageCache struct {
	mu     sync.RWMutex
	blocks map[sharedKey]*sharedTB
}

func (c *sharedImageCache) get(sig uint64, pc uint32) *sharedTB {
	c.mu.RLock()
	e := c.blocks[sharedKey{sig: sig, pc: pc}]
	c.mu.RUnlock()
	return e
}

func (c *sharedImageCache) put(sig uint64, pc uint32, e *sharedTB) {
	k := sharedKey{sig: sig, pc: pc}
	c.mu.Lock()
	if len(c.blocks) < maxSharedBlocks {
		if _, ok := c.blocks[k]; !ok {
			c.blocks[k] = e
		}
	}
	c.mu.Unlock()
}

var (
	sharedMu     sync.Mutex
	sharedCaches = map[string]*sharedImageCache{}

	// imageIDs memoizes content digests per image pointer; images are
	// immutable after construction, so the pointer identifies the content.
	imageIDs sync.Map // *kasm.Image -> string
)

func sharedCacheFor(imageID string) *sharedImageCache {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	c, ok := sharedCaches[imageID]
	if !ok {
		c = &sharedImageCache{blocks: make(map[sharedKey]*sharedTB)}
		sharedCaches[imageID] = c
	}
	return c
}

func imageIDFor(img *kasm.Image) string {
	if v, ok := imageIDs.Load(img); ok {
		return v.(string)
	}
	id := img.ContentID()
	imageIDs.Store(img, id)
	return id
}

// sharedPageOK reports whether pc's whole page lies inside the image's text
// segment. Only such pages are shareable: a block near the text boundary may
// decode into adjacent data bytes, which differ between same-text images,
// and writes outside the text range never bump pageGen.
func (m *Machine) sharedPageOK(pc uint32) bool {
	ps := pc &^ (pageSize - 1)
	return ps >= m.image.Base && ps+pageSize <= m.image.TextEnd()
}

// sharedSigNow returns the machine's translation signature: a digest of
// every translation input other than the code bytes themselves. Machines
// with equal image content and equal signatures translate identically, which
// is the shared cache's correctness condition. The signature is invalidated
// by flushTBs, the single choke point every input mutation goes through.
func (m *Machine) sharedSigNow() uint64 {
	if !m.sharedSigOK {
		sig := uint64(0x9E3779B97F4A7C15)
		if m.probes.Mem != nil {
			sig ^= 0xA5
		}
		if m.probes.Sanck != nil {
			sig ^= 0x5A00
		}
		sig = mix64(sig ^ uint64(m.cfg.RAMSize)<<16)
		sig ^= pcSetSig(m.safeMem, 1)
		sig ^= pcSetSig(m.elided, 2)
		if m.inlineShadow != nil {
			// Armed and unarmed machines must never share steps, nor armed
			// ones with different quiet ranges.
			q := uint64(3)
			for _, r := range m.quiet {
				q += mix64(uint64(r.Start)<<32 | uint64(r.End))
			}
			sig ^= mix64(q)
		}
		sig ^= hookSetSig(m.pcHooks)
		m.sharedSig = sig
		m.sharedSigOK = true
	}
	return m.sharedSig
}

// pcSetSig folds a PC set into an order-independent digest (map iteration
// order must not matter), salted so e.g. a safe set and an identical elided
// set do not cancel.
func pcSetSig(set map[uint32]bool, salt uint64) uint64 {
	var s uint64
	for pc := range set {
		s += mix64(uint64(pc) | salt<<40)
	}
	return s
}

func hookSetSig(hooks map[uint32]HookFn) uint64 {
	var s uint64
	for pc := range hooks {
		s += mix64(uint64(pc) | 4<<40)
	}
	return s
}

// mix64 is the splitmix64 finalizer — a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
