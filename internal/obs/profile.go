package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Profile attributes virtual-instruction and sanitizer-dispatch cost to
// guest PCs. The emulator feeds it live — per translation block executed
// and per SANCK/Mem dispatch fired — so it sees everything even when the
// trace ring has wrapped. Like the trace, its clock is virtual: "cost" is
// retired guest instructions, not host nanoseconds, which is what makes
// two profiles of the same campaign bit-identical.
type Profile struct {
	insts map[uint32]uint64 // per block-leader PC: guest instructions retired
	disp  map[uint32]uint64 // per access-site PC: sanitizer dispatches fired
}

// NewProfile creates an empty profile.
func NewProfile() *Profile {
	return &Profile{insts: map[uint32]uint64{}, disp: map[uint32]uint64{}}
}

// AddInsts attributes n retired instructions to the block at pc.
func (p *Profile) AddInsts(pc uint32, n uint64) { p.insts[pc] += n }

// AddDispatch records one sanitizer dispatch at the access site pc.
func (p *Profile) AddDispatch(pc uint32) { p.disp[pc]++ }

// TotalInsts returns the total attributed instruction count.
func (p *Profile) TotalInsts() uint64 {
	var t uint64
	for _, n := range p.insts {
		t += n
	}
	return t
}

// FuncRange is one recovered static function, as produced by
// internal/static function recovery ([Entry, End) with the symbol or
// synthesised name). The profiler takes ranges rather than an Analysis so
// obs stays dependency-free.
type FuncRange struct {
	Entry uint32
	End   uint32
	Name  string
}

// unknownFrame is the attribution bucket for PCs outside every range.
const unknownFrame = "[unknown]"

// attribute maps pc to the containing function name. funcs must be sorted
// by Entry.
func attribute(funcs []FuncRange, pc uint32) string {
	i := sort.Search(len(funcs), func(i int) bool { return funcs[i].Entry > pc })
	if i > 0 && pc < funcs[i-1].End {
		return funcs[i-1].Name
	}
	return unknownFrame
}

// Folded renders the flamegraph-compatible folded-stack form: one
// "stack count" line per function, where the stack is the single recovered
// frame and the count is retired guest instructions. Lines are sorted by
// name so two runs of the same campaign emit byte-identical files.
func (p *Profile) Folded(funcs []FuncRange) string {
	agg := map[string]uint64{}
	for pc, n := range p.insts {
		agg[attribute(funcs, pc)] += n
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %d\n", n, agg[n])
	}
	return b.String()
}

// DispatchSite is one access site whose sanitizer dispatch fired, ranked by
// how often it fired.
type DispatchSite struct {
	PC    uint32
	Fn    string // containing function + offset, "[unknown]" when unattributed
	Count uint64
}

// DispatchSites returns every dispatching site ranked by descending count,
// ties broken by ascending PC — the data PartiSan-style partitioning
// decisions would be driven by.
func (p *Profile) DispatchSites(funcs []FuncRange) []DispatchSite {
	out := make([]DispatchSite, 0, len(p.disp))
	for pc, n := range p.disp {
		fn := unknownFrame
		if name := attribute(funcs, pc); name != unknownFrame {
			i := sort.Search(len(funcs), func(i int) bool { return funcs[i].Entry > pc })
			fn = fmt.Sprintf("%s+%#x", name, pc-funcs[i-1].Entry)
		}
		out = append(out, DispatchSite{PC: pc, Fn: fn, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// FormatDispatchTable renders the per-site dispatch-cost table: the top
// sites by dispatch count with their share of all dispatches. top <= 0
// means every site.
func FormatDispatchTable(sites []DispatchSite, top int) string {
	var total uint64
	for _, s := range sites {
		total += s.Count
	}
	if top <= 0 || top > len(sites) {
		top = len(sites)
	}
	var b strings.Builder
	b.WriteString("Hottest must-check sanitizer dispatch sites\n")
	fmt.Fprintf(&b, "%-4s %-10s %12s %7s  %s\n", "rank", "pc", "dispatches", "share", "site")
	for i := 0; i < top; i++ {
		s := sites[i]
		share := 0.0
		if total > 0 {
			share = float64(s.Count) / float64(total) * 100
		}
		fmt.Fprintf(&b, "%-4d %#08x %12d %6.1f%%  %s\n", i+1, s.PC, s.Count, share, s.Fn)
	}
	fmt.Fprintf(&b, "total dispatches: %d across %d sites\n", total, len(sites))
	return b.String()
}
