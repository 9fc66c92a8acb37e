package absint

import (
	"fmt"

	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/static"
)

// Lint rule identifiers for the elision audit.
const (
	// RuleElideProof: a recorded elision site lacks a re-derivable proof.
	RuleElideProof = "elide-proof"
	// RuleElideDeterminism: two analysis runs disagreed on the proof set.
	RuleElideDeterminism = "elide-determinism"
)

// Elisions converts the proven EMBSAN-C access sites into the link-time
// elision list for kasm.Image.ElideSancks: proven accesses immediately
// preceded by their matching SANCK probe. mmioOnly restricts to device
// proofs — the only kind that is dispatch-neutral under every sanitizer
// engine (the runtime ignores device addresses before any engine sees
// them), which deployments running KCSAN or UBSAN require.
func (r *Result) Elisions(mmioOnly bool) []kasm.Elision {
	img := r.an.Image
	var out []kasm.Elision
	for _, a := range r.Accesses {
		if a.Kind == ProofNone || (mmioOnly && a.Kind != ProofMMIO) {
			continue
		}
		if img.Meta.InNoSan(a.PC) {
			continue
		}
		in, _ := r.an.InstAt(a.PC)
		if in.Op == isa.OpLRW && in.Imm != 0 {
			continue // probe guards base+0, the access reads base+imm
		}
		prev, ok := r.an.InstAt(a.PC - 4)
		if !ok || prev.Op != isa.OpSANCK {
			continue
		}
		atomic := isa.ClassOf(in.Op) == isa.ClassAtomic
		if prev.Rd != isa.SanckInfo(a.Size, a.Write, atomic) ||
			prev.Rs1 != in.Rs1 || int64(prev.Imm) != effImm(in) {
			continue
		}
		out = append(out, kasm.Elision{
			Site:   a.PC - 4,
			Access: a.PC,
			Kind:   elideKind(a.Kind),
			Object: a.Object,
		})
	}
	return out
}

// SafeAccessPCs returns the proven access sites for the EMBSAN-D consumer
// (san.SiteProofs.SafeAccess). mmioOnly as in Elisions.
func (r *Result) SafeAccessPCs(mmioOnly bool) []uint32 {
	var out []uint32
	for _, a := range r.Accesses {
		if a.Kind == ProofNone || (mmioOnly && a.Kind != ProofMMIO) {
			continue
		}
		out = append(out, a.PC)
	}
	return out
}

func elideKind(k ProofKind) kasm.ElideKind {
	switch k {
	case ProofGlobal:
		return kasm.ElideGlobal
	case ProofStack:
		return kasm.ElideStack
	case ProofMMIO:
		return kasm.ElideMMIO
	}
	return 0
}

func proofKind(k kasm.ElideKind) ProofKind {
	switch k {
	case kasm.ElideGlobal:
		return ProofGlobal
	case kasm.ElideStack:
		return ProofStack
	case kasm.ElideMMIO:
		return ProofMMIO
	}
	return ProofNone
}

// Audit is the `embsan lint -elide` core: it re-derives the safety proofs
// for img and reports every recorded elision that lacks one, plus any
// nondeterminism between two independent analysis runs. The re-derivation
// is sound on already-elided images because SANCK and its FENCE pad are
// both register-transparent, so the abstract states are unchanged by the
// rewrite. Base lint diagnostics are included, making this a strict
// superset of `embsan lint`.
func Audit(img *kasm.Image, taint []kasm.AddrRange) ([]static.Diag, error) {
	diags, err := static.Lint(img)
	if err != nil {
		return nil, err
	}
	report := func(rule string, addr uint32, format string, args ...any) {
		diags = append(diags, static.Diag{
			Rule: rule,
			Addr: addr,
			Sym:  img.Symbolize(addr),
			Msg:  fmt.Sprintf(format, args...),
		})
	}

	res, err := reprove(img, taint)
	if err != nil {
		return nil, err
	}
	// Determinism check: a second full recovery+analysis must produce the
	// identical proof set (guards against map-order nondeterminism).
	res2, err := reprove(img, taint)
	if err != nil {
		return nil, err
	}
	if len(res.Accesses) != len(res2.Accesses) {
		report(RuleElideDeterminism, img.Base,
			"analysis runs disagree: %d vs %d access sites", len(res.Accesses), len(res2.Accesses))
	} else {
		for i := range res.Accesses {
			if res.Accesses[i] != res2.Accesses[i] {
				report(RuleElideDeterminism, res.Accesses[i].PC,
					"analysis runs disagree at %#x: %v vs %v",
					res.Accesses[i].PC, res.Accesses[i].Kind, res2.Accesses[i].Kind)
				break
			}
		}
	}

	for _, e := range img.Meta.Elisions {
		pad, ok := res.an.InstAt(e.Site)
		if !ok || pad.Op != isa.OpFENCE {
			report(RuleElideProof, e.Site, "elision site holds %s, not the FENCE pad",
				disasmAt(res.an, e.Site))
			continue
		}
		if e.Access != e.Site+4 {
			report(RuleElideProof, e.Site, "elision claims access at %#x, not %#x", e.Access, e.Site+4)
			continue
		}
		a, ok := res.At(e.Access)
		if !ok {
			report(RuleElideProof, e.Site, "elided site guards no access")
			continue
		}
		if a.Kind == ProofNone {
			report(RuleElideProof, e.Site, "elided %s has no safety proof",
				disasmAt(res.an, e.Access))
			continue
		}
		if a.Kind != proofKind(e.Kind) || a.Object != e.Object {
			report(RuleElideProof, e.Site,
				"elision recorded as %s/%q but re-derivation proves %s/%q",
				e.Kind, e.Object, a.Kind, a.Object)
		}
	}
	return diags, nil
}

// reprove runs a fresh recovery and analysis over img.
func reprove(img *kasm.Image, taint []kasm.AddrRange) (*Result, error) {
	an, err := static.Analyze(img)
	if err != nil {
		return nil, err
	}
	return Analyze(an, Options{Taint: taint}), nil
}

func disasmAt(an *static.Analysis, pc uint32) string {
	in, ok := an.InstAt(pc)
	if !ok {
		return "an undecodable word"
	}
	return isa.Disasm(in, pc)
}
