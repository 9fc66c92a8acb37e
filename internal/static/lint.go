package static

import (
	"fmt"
	"sort"

	"embsan/internal/isa"
	"embsan/internal/kasm"
)

// Lint rule identifiers.
const (
	RuleTextDecode    = "text-decode"    // every text word must decode
	RuleSanckCoverage = "sanck-coverage" // every access needs a hypercall probe
	RuleSanckOrphan   = "sanck-orphan"   // every probe needs a matching access
	RuleGlobalRedzone = "global-redzone" // global redzone layout consistency
	RuleXref          = "xref"           // symbol table / link map cross-references
	RuleRaces         = "races"          // lockset / shared-state race triage
)

// Diag is one lint diagnostic, addressed to a symbol+offset location so
// toolchain regressions can be tracked to the emitting site without running
// the firmware.
type Diag struct {
	Rule string
	Addr uint32
	Sym  string // symbolised location ("memPartAlloc+0x10" or raw hex)
	Msg  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%#08x (%s): %s: %s", d.Addr, d.Sym, d.Rule, d.Msg)
}

// Lint statically audits a built image. For EMBSAN-C builds it verifies
// instrumentation completeness: every load/store/atomic site must be
// covered by an immediately preceding SANCK probe carrying the matching
// size/direction/base/offset, unless the site lies in a recorded NoSan
// region; every probe must in turn guard a matching access. All builds get
// text decodability and symbol-table/link-map cross-reference checks; the
// metadata-dependent rules are skipped on stripped images (the metadata is
// gone — that is what stripping means).
func Lint(img *kasm.Image) ([]Diag, error) {
	a, err := Analyze(img)
	if err != nil {
		return nil, err
	}
	var diags []Diag
	report := func(rule string, addr uint32, format string, args ...any) {
		diags = append(diags, Diag{
			Rule: rule,
			Addr: addr,
			Sym:  img.Symbolize(addr),
			Msg:  fmt.Sprintf(format, args...),
		})
	}

	lintText(a, report)
	if img.Meta.Sanitize == kasm.SanEmbsanC && !img.Stripped {
		lintGlobals(img, report)
	}
	lintXref(img, report)

	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Addr < diags[j].Addr })
	return diags, nil
}

// LintSkips reports which metadata-dependent rule groups Lint cannot run on
// this image, with the reason. A non-empty result means a "clean" verdict
// covers only the universally-applicable checks — callers surface this so a
// clean report on a metadata-less binary is never mistaken for a full
// instrumentation audit.
func LintSkips(img *kasm.Image) []string {
	var skips []string
	switch {
	case img.Stripped:
		skips = append(skips,
			RuleSanckCoverage+"/"+RuleSanckOrphan+": link metadata stripped from the image",
			RuleGlobalRedzone+": global layout metadata stripped from the image")
	case img.Meta.Sanitize != kasm.SanEmbsanC:
		skips = append(skips,
			RuleSanckCoverage+"/"+RuleSanckOrphan+": image has no EMBSAN-C link metadata ("+img.Meta.Sanitize.String()+" build)",
			RuleGlobalRedzone+": image has no EMBSAN-C global metadata")
	}
	if len(img.Symbols) == 0 && !img.Stripped {
		skips = append(skips, RuleXref+": image carries no symbol table")
	}
	if img.Stripped || len(img.Symbols) == 0 {
		// The lockset analysis classifies objects, and objects come from
		// the symbol table: without anchors every access is unresolved and
		// the triage would vacuously pass.
		skips = append(skips, RuleRaces+": no symbol anchors")
	}
	return skips
}

// lintText walks the text section once, checking decodability and — on
// EMBSAN-C builds — the probe/access pairing in both directions.
func lintText(a *Analysis, report func(string, uint32, string, ...any)) {
	img := a.Image
	embsanC := img.Meta.Sanitize == kasm.SanEmbsanC
	for pc := img.Base; pc < img.TextEnd(); pc += 4 {
		in, ok := a.InstAt(pc)
		if !ok {
			if int(pc-img.Base)+4 > len(img.Text) {
				report(RuleTextDecode, pc, "truncated word at end of text")
				continue
			}
			report(RuleTextDecode, pc, "word %#08x does not decode under %s",
				img.Arch.Word(img.Text[pc-img.Base:]), img.Arch)
			continue
		}
		switch isa.ClassOf(in.Op) {
		case isa.ClassLoad, isa.ClassStore, isa.ClassAtomic:
			if !embsanC || img.Stripped || img.Meta.InNoSan(pc) {
				continue
			}
			want := isa.SanckInfo(isa.AccessSize(in.Op), isa.IsWrite(in.Op),
				isa.ClassOf(in.Op) == isa.ClassAtomic)
			prev, pok := a.InstAt(pc - 4)
			switch {
			case !pok || prev.Op != isa.OpSANCK:
				report(RuleSanckCoverage, pc, "%s has no hypercall probe",
					isa.Disasm(in, pc))
			case prev.Rd != want || prev.Rs1 != in.Rs1 || prev.Imm != accessOff(in):
				report(RuleSanckCoverage, pc, "%s probe mismatch: probe %s",
					isa.Disasm(in, pc), isa.Disasm(prev, pc-4))
			}
		case isa.ClassSanck:
			if !embsanC {
				report(RuleSanckOrphan, pc, "sanck in a %s build", img.Meta.Sanitize)
				continue
			}
			next, nok := a.InstAt(pc + 4)
			if !nok || !isAccess(next.Op) {
				report(RuleSanckOrphan, pc, "probe guards no access")
			}
		}
	}
}

func isAccess(op isa.Op) bool {
	switch isa.ClassOf(op) {
	case isa.ClassLoad, isa.ClassStore, isa.ClassAtomic:
		return true
	}
	return false
}

// accessOff returns the effective-address offset of a memory access as the
// instrumentation pass saw it: the immediate for plain loads/stores, zero
// for the register-addressed atomics.
func accessOff(in isa.Inst) int32 {
	switch in.Op {
	case isa.OpLRW, isa.OpSCW, isa.OpAMOADDW, isa.OpAMOSWAPW, isa.OpAMOORW, isa.OpAMOANDW:
		return 0
	}
	return in.Imm
}

// lintGlobals verifies the redzone layout of every metadata-recorded global
// against the build constant and the symbol table.
func lintGlobals(img *kasm.Image, report func(string, uint32, string, ...any)) {
	for _, g := range img.Meta.Globals {
		if g.Redzone != kasm.GlobalRedzone {
			report(RuleGlobalRedzone, g.Addr, "global %s has redzone %d, want %d",
				g.Name, g.Redzone, kasm.GlobalRedzone)
		}
		lo, hi := g.Addr-g.Redzone, g.Addr+g.Size+g.Redzone
		if lo < img.DataAddr || hi > img.MemTop() {
			report(RuleGlobalRedzone, g.Addr,
				"global %s redzoned range [%#x,%#x) escapes the data image [%#x,%#x)",
				g.Name, lo, hi, img.DataAddr, img.MemTop())
		}
		if len(img.Symbols) > 0 {
			s, ok := img.Lookup(g.Name)
			switch {
			case !ok:
				report(RuleGlobalRedzone, g.Addr, "global %s has no symbol", g.Name)
			case s.Addr != g.Addr || s.Size != g.Size:
				report(RuleGlobalRedzone, g.Addr,
					"global %s metadata [%#x,+%d) disagrees with symbol [%#x,+%d)",
					g.Name, g.Addr, g.Size, s.Addr, s.Size)
			}
		}
		// No other object may sit inside this global's redzones.
		for _, s := range img.Symbols {
			if s.Kind != kasm.SymObject || s.Name == g.Name || s.Size == 0 {
				continue
			}
			if s.Addr < hi && s.Addr+s.Size > lo &&
				(s.Addr+s.Size <= g.Addr || s.Addr >= g.Addr+g.Size) {
				report(RuleGlobalRedzone, g.Addr,
					"object %s [%#x,+%d) overlaps the redzone of global %s",
					s.Name, s.Addr, s.Size, g.Name)
			}
		}
	}
}

// lintXref verifies the symbol table and link-map cross-references: entry
// point placement, symbol ordering and section containment, and that the
// metadata's annotated allocator/free entry points resolve to function
// symbols.
func lintXref(img *kasm.Image, report func(string, uint32, string, ...any)) {
	if img.Entry < img.Base || img.Entry >= img.TextEnd() || img.Entry%4 != 0 {
		report(RuleXref, img.Entry, "entry point outside text [%#x,%#x)",
			img.Base, img.TextEnd())
	}
	var prev uint32
	for i, s := range img.Symbols {
		if i > 0 && s.Addr < prev {
			report(RuleXref, s.Addr, "symbol %s breaks address ordering", s.Name)
		}
		prev = s.Addr
		switch s.Kind {
		case kasm.SymFunc:
			if s.Addr < img.Base || s.Addr%4 != 0 || s.Addr+s.Size > img.TextEnd() {
				report(RuleXref, s.Addr, "function %s [%#x,+%d) escapes text [%#x,%#x)",
					s.Name, s.Addr, s.Size, img.Base, img.TextEnd())
			}
		case kasm.SymObject:
			if s.Addr < img.DataAddr || s.Addr+s.Size > img.MemTop() {
				report(RuleXref, s.Addr, "object %s [%#x,+%d) escapes data [%#x,%#x)",
					s.Name, s.Addr, s.Size, img.DataAddr, img.MemTop())
			}
		}
	}
	if img.Stripped || len(img.Symbols) == 0 {
		return
	}
	for _, lists := range []struct {
		kind  string
		names []string
	}{
		{"allocator", img.Meta.AllocFuncs},
		{"free", img.Meta.FreeFuncs},
	} {
		for _, name := range lists.names {
			s, ok := img.Lookup(name)
			if !ok {
				report(RuleXref, img.Base, "annotated %s %q has no symbol", lists.kind, name)
				continue
			}
			if s.Kind != kasm.SymFunc {
				report(RuleXref, s.Addr, "annotated %s %q is not a function", lists.kind, name)
			}
		}
	}
}
