package races

import (
	"fmt"

	"embsan/internal/isa"
)

// eventPCs returns the pcs the sanitizer runtime will see for the access at
// pc: the access pc itself, plus the preceding SANCK's pc for EMBSAN-C
// builds (compile-time probe events carry the check's pc, not the access's).
func (r *Result) eventPCs(pc uint32) []uint32 {
	pcs := []uint32{pc}
	if in, ok := r.An.InstAt(pc - 4); ok && in.Op == isa.OpSANCK {
		pcs = append(pcs, pc-4)
	}
	return pcs
}

// SitePriorities builds the KCSAN arming-weight map: accesses of
// unprotected/mixed objects get the boost weight, accesses of proven
// always-protected or hart-local objects get weight 0 (never armed).
// Unresolved accesses stay at the default weight 1 (absent from the map).
func (r *Result) SitePriorities(boost uint8) map[uint32]uint8 {
	if boost == 0 {
		boost = DefaultBoost
	}
	prio := map[uint32]uint8{}
	for _, o := range r.Objects {
		var w uint8
		switch o.Class {
		case ClassRacy:
			w = boost
		case ClassProtected, ClassHartLocal:
			w = 0
		default:
			continue
		}
		for _, ai := range o.Accesses {
			for _, pc := range r.eventPCs(r.Accesses[ai].PC) {
				prio[pc] = w
			}
		}
	}
	return prio
}

// Stats summarises the analysis for audits and lint output.
type Stats struct {
	Objects    int
	Protected  int
	HartLocal  int
	Racy       int
	Accesses   int
	Unresolved int
	Pairs      int
	Widened    int
}

// Stats computes summary counts over the result.
func (r *Result) Stats() Stats {
	s := Stats{
		Objects:    len(r.Objects),
		Accesses:   len(r.Accesses),
		Unresolved: r.Unresolved,
		Pairs:      len(r.Pairs),
		Widened:    len(r.Widened),
	}
	for _, o := range r.Objects {
		switch o.Class {
		case ClassProtected:
			s.Protected++
		case ClassHartLocal:
			s.HartLocal++
		case ClassRacy:
			s.Racy++
		}
	}
	return s
}

// DescribePair renders one candidate race pair with symbol xrefs.
func (r *Result) DescribePair(p Pair) string {
	o := r.Objects[p.Object]
	return fmt.Sprintf("%s: %s <-> %s", o.Name, r.describeAccess(p.A, o), r.describeAccess(p.B, o))
}

func (r *Result) describeAccess(idx int, o *Object) string {
	acc := &r.Accesses[idx]
	rw := "read"
	if acc.Write {
		rw = "write"
	}
	off := "+?"
	if acc.Off != OffUnknown {
		off = fmt.Sprintf("+%#x", acc.Off)
	}
	return fmt.Sprintf("%s%s @ %#x (%s)", rw, off, acc.PC, acc.Func)
}
