package emu

// Shadow call stack: a per-hart, bounded record of the guest's live call
// frames, maintained by the interpreter from retired JAL/JALR edges. It is
// the provenance substrate behind sanitizer backtraces — every report,
// allocator intercept and free can be attributed to a full guest call chain
// instead of the single live RA register.
//
// Design constraints, in order:
//
//   - Determinism. The stack is pure dynamic state derived from retired
//     instructions, so it is a function of the execution alone. It lives
//     inside Hart, which Snapshot/Restore copy wholesale, so a pooled
//     machine rewound between campaigns carries the bit-identical stack the
//     snapshot had — replays on any worker see the same frames.
//   - Zero translation impact. Maintenance happens in the JAL/JALR
//     interpreter cases only; no template changes, so TB chaining and the
//     lockstep oracles are untouched.
//   - Bounded cost. A call edge is one bounds check and one store; a
//     matching return is one compare and a decrement. Deep recursion wraps
//     the circular buffer, keeping the innermost ShadowStackDepth frames —
//     the ones a backtrace wants.
//
// Call/return discrimination follows the link-register convention the
// toolchain emits (kasm.Builder.Call / Ret): a JAL or JALR that writes RA
// is a call and pushes its own PC (the call site); any other JALR is a
// potential return and pops the frame whose return address matches the
// transfer target. Non-matching indirect jumps (jump tables, tail calls,
// context switches) unwind to the deepest matching frame or, absent one,
// leave the stack alone — every rule a pure function of the event, so two
// identical executions reconstruct identical stacks.

// ShadowStackDepth bounds the per-hart shadow call stack. Overflowing
// frames drop from the outermost end, so the innermost window survives.
const ShadowStackDepth = 64

// callPush records a call edge: pc is the call-site PC (the JAL/JALR that
// linked RA). When the buffer is full the outermost frame is overwritten.
func (h *Hart) callPush(pc uint32) {
	if int(h.cssDepth) < ShadowStackDepth {
		h.css[(h.cssStart+h.cssDepth)%ShadowStackDepth] = pc
		h.cssDepth++
		return
	}
	h.css[h.cssStart] = pc
	h.cssStart = (h.cssStart + 1) % ShadowStackDepth
}

// callRet unwinds the stack at a non-linking JALR. The frame whose return
// address (call site + 4) matches the transfer target is popped along with
// everything above it; an unmatched target (longjmp into unrecorded depth,
// jump table, task switch) leaves the stack untouched.
func (h *Hart) callRet(target uint32) {
	for d := h.cssDepth; d > 0; d-- {
		if h.css[(h.cssStart+d-1)%ShadowStackDepth]+4 == target {
			h.cssDepth = d - 1
			return
		}
	}
}

// resetCallStack empties the hart's shadow stack (hart spawn).
func (h *Hart) resetCallStack() {
	h.cssStart, h.cssDepth = 0, 0
}

// CallStackDepth returns the number of retained frames on hart's shadow
// call stack.
func (m *Machine) CallStackDepth(hart int) int {
	if hart < 0 || hart >= len(m.harts) {
		return 0
	}
	return int(m.harts[hart].cssDepth)
}

// CallStack returns hart's shadow call stack as a fresh slice of call-site
// PCs, innermost first: element 0 is the most recent unreturned call. Empty
// when no call is live. The virtual PC of the faulting access itself is
// not included — a full backtrace is the access PC followed by this slice.
func (m *Machine) CallStack(hart int) []uint32 {
	if hart < 0 || hart >= len(m.harts) {
		return nil
	}
	h := &m.harts[hart]
	out := make([]uint32, h.cssDepth)
	for i := range out {
		out[i] = h.css[(h.cssStart+h.cssDepth-1-uint16(i))%ShadowStackDepth]
	}
	return out
}
