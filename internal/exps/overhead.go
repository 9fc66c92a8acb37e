package exps

import (
	"fmt"
	"strings"
	"time"

	"embsan/internal/core"
	"embsan/internal/emu"
	"embsan/internal/guest/elinux"
	"embsan/internal/guest/firmware"
	"embsan/internal/guest/gabi"
	"embsan/internal/kasm"
	"embsan/internal/san"
)

// OverheadOptions tunes the Figure 2 measurement.
type OverheadOptions struct {
	Programs int // workload programs per firmware (default 16)
	Repeats  int // measurement repetitions, best-of (default 3)
	Seed     int64
}

// Overhead configuration labels (the Figure 2 series).
const (
	CfgBare        = "bare"
	CfgEmbsanKASAN = "embsan-kasan"
	CfgNativeKASAN = "native-kasan"
	CfgEmbsanKCSAN = "embsan-kcsan"
	CfgNativeKCSAN = "native-kcsan"
)

// OverheadRow is the measurement for one firmware.
type OverheadRow struct {
	Firmware string
	BaseOS   string
	Arch     string
	InstMode string
	Bare     time.Duration
	Slowdown map[string]float64 // config -> time(config)/time(bare)
}

// RunOverhead measures the runtime overhead of every sanitizer
// configuration on the named firmware (Figure 2). The workload is a fixed
// benign corpus replayed under each configuration; the natively-sanitized
// baselines run the same corpus on rebuilt images.
func RunOverhead(names []string, opts OverheadOptions) ([]OverheadRow, error) {
	if opts.Programs == 0 {
		opts.Programs = 16
	}
	if opts.Repeats == 0 {
		opts.Repeats = 3
	}
	var rows []OverheadRow
	for _, name := range names {
		row, err := overheadFor(name, opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func overheadFor(name string, opts OverheadOptions) (*OverheadRow, error) {
	table1, err := firmware.Build(name)
	if err != nil {
		return nil, err
	}
	workload := buildWorkload(table1, opts)

	row := &OverheadRow{
		Firmware: name, BaseOS: table1.BaseOS, Arch: table1.Arch.String(),
		InstMode: table1.InstMode, Slowdown: map[string]float64{},
	}

	// Bare: uninstrumented build, no sanitizer attached.
	bare, err := buildVariantOrSame(name, table1, kasm.SanNone)
	if err != nil {
		return nil, err
	}
	bareTime, err := measure(bare, workload, nil, opts.Repeats)
	if err != nil {
		return nil, fmt.Errorf("exps: overhead %s bare: %w", name, err)
	}
	row.Bare = bareTime

	addCfg := func(label string, fw *firmware.Firmware, sans []string) error {
		t, err := measure(fw, workload, sans, opts.Repeats)
		if err != nil {
			return fmt.Errorf("exps: overhead %s %s: %w", name, label, err)
		}
		row.Slowdown[label] = float64(t) / float64(bareTime)
		return nil
	}

	// EMBSAN KASAN on the firmware's Table 1 instrumentation mode.
	if err := addCfg(CfgEmbsanKASAN, table1, []string{"kasan"}); err != nil {
		return nil, err
	}
	// EMBSAN KCSAN (Embedded Linux firmware, as in the paper).
	if table1.BaseOS == "Embedded Linux" {
		if err := addCfg(CfgEmbsanKCSAN, table1, []string{"kcsan"}); err != nil {
			return nil, err
		}
	}
	// Native baselines need source: rebuild with in-guest sanitizers.
	if table1.SourceOpen {
		nk, err := firmware.BuildVariant(name, kasm.SanNativeKASAN)
		if err != nil {
			return nil, err
		}
		if err := addCfg(CfgNativeKASAN, nk, nil); err != nil {
			return nil, err
		}
		if table1.BaseOS == "Embedded Linux" {
			nc, err := firmware.BuildVariant(name, kasm.SanNativeKCSAN)
			if err != nil {
				return nil, err
			}
			if err := addCfg(CfgNativeKCSAN, nc, nil); err != nil {
				return nil, err
			}
		}
	}
	return row, nil
}

func buildVariantOrSame(name string, table1 *firmware.Firmware, mode kasm.SanitizeMode) (*firmware.Firmware, error) {
	if table1.Image.Meta.Sanitize == mode {
		return table1, nil
	}
	return firmware.BuildVariant(name, mode)
}

// buildWorkload produces the deterministic benign corpus the paper calls
// "the merged corpus acquired after completing the previous experiment".
func buildWorkload(fw *firmware.Firmware, opts OverheadOptions) [][]byte {
	var out [][]byte
	if fw.Frontend == firmware.FrontendSyscall {
		benign := uint32(len(elinux.BenignSyscalls))
		for i := 0; i < opts.Programs; i++ {
			var p gabi.Prog
			for j := 0; j < 6; j++ {
				k := uint32(i*6 + j)
				p = append(p, gabi.Record{
					NR:    k % benign,
					NArgs: 4,
					Args:  [4]uint32{k * 13 % 200, k % 7, k % 11, k % 5},
				})
			}
			out = append(out, p.Encode())
		}
		return out
	}
	// Byte frontends: pad the seed requests into heavier service loads so
	// the measurement is not dominated by executor polling.
	for i := 0; i < opts.Programs; i++ {
		seed := fw.Seeds[i%len(fw.Seeds)]
		in := append([]byte(nil), seed...)
		for len(in) < 96 {
			in = append(in, byte(7*len(in)))
		}
		out = append(out, in)
	}
	return out
}

// measure boots the firmware in the given configuration and times the
// workload replay (best of n repetitions). The inline check stays unarmed:
// Figure 2 measures the paper's mechanism, a delegate on every access.
func measure(fw *firmware.Firmware, workload [][]byte, sans []string, repeats int) (time.Duration, error) {
	inst, err := core.New(core.Config{
		Image:         fw.Image,
		Sanitizers:    sans,
		NoSanitizer:   len(sans) == 0,
		Machine:       emu.Config{MaxHarts: 2},
		KCSAN:         san.KCSANConfig{SampleInterval: 20, Delay: 2000},
		NoInlineCheck: true,
	})
	if err != nil {
		return 0, err
	}
	if err := inst.Boot(500_000_000); err != nil {
		return 0, err
	}
	inst.Snapshot()

	// The corpus replays on the live system (as in the paper) — no snapshot
	// restore between inputs, so the measurement reflects execution cost,
	// not reset cost. The workload is benign and state-neutral.
	replay := func() error {
		for _, input := range workload {
			res := inst.Exec(input, 100_000_000)
			if !res.Done {
				return fmt.Errorf("workload input did not complete (stop=%v fault=%v)", res.Stop, res.Fault)
			}
		}
		return nil
	}
	// Warm the translation caches once before timing.
	if err := replay(); err != nil {
		return 0, err
	}
	// Time adaptively: repeat the workload until each sample is long
	// enough to dominate timer noise, then take the best of n.
	const minSample = 25 * time.Millisecond
	best := time.Duration(0)
	for r := 0; r < repeats; r++ {
		iters := 0
		start := time.Now()
		for {
			if err := replay(); err != nil {
				return 0, err
			}
			iters++
			if time.Since(start) >= minSample {
				break
			}
		}
		per := time.Since(start) / time.Duration(iters)
		if best == 0 || per < best {
			best = per
		}
	}
	return best, nil
}

// FormatFigure2 renders the overhead series with the paper's groupings.
func FormatFigure2(rows []OverheadRow) string {
	var b strings.Builder
	b.WriteString("Figure 2: runtime overhead (slowdown vs. uninstrumented emulation)\n")
	fmt.Fprintf(&b, "%-24s %-15s %-8s %-9s %12s %12s %12s %12s\n",
		"Firmware", "Base OS", "Arch", "Mode", CfgEmbsanKASAN, CfgNativeKASAN, CfgEmbsanKCSAN, CfgNativeKCSAN)
	cell := func(r OverheadRow, cfg string) string {
		if v, ok := r.Slowdown[cfg]; ok {
			return fmt.Sprintf("%.2fx", v)
		}
		return "-"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %-15s %-8s %-9s %12s %12s %12s %12s\n",
			r.Firmware, r.BaseOS, r.Arch, r.InstMode,
			cell(r, CfgEmbsanKASAN), cell(r, CfgNativeKASAN),
			cell(r, CfgEmbsanKCSAN), cell(r, CfgNativeKCSAN))
	}

	// Grouped ranges, as the paper reports them.
	b.WriteString("\nGrouped slowdown ranges:\n")
	groups := []struct {
		label  string
		filter func(OverheadRow) bool
		cfg    string
	}{
		{"EMBSAN-C KASAN (Embedded Linux)", func(r OverheadRow) bool {
			return r.BaseOS == "Embedded Linux" && r.InstMode == "EmbSan-C"
		}, CfgEmbsanKASAN},
		{"EMBSAN-D KASAN (Embedded Linux)", func(r OverheadRow) bool {
			return r.BaseOS == "Embedded Linux" && r.InstMode == "EmbSan-D"
		}, CfgEmbsanKASAN},
		{"native KASAN  (Embedded Linux)", func(r OverheadRow) bool {
			return r.BaseOS == "Embedded Linux"
		}, CfgNativeKASAN},
		{"EMBSAN KCSAN  (Embedded Linux)", func(r OverheadRow) bool {
			return r.BaseOS == "Embedded Linux"
		}, CfgEmbsanKCSAN},
		{"native KCSAN  (Embedded Linux)", func(r OverheadRow) bool {
			return r.BaseOS == "Embedded Linux"
		}, CfgNativeKCSAN},
		{"EMBSAN KASAN  (LiteOS/FreeRTOS/VxWorks)", func(r OverheadRow) bool {
			return r.BaseOS != "Embedded Linux"
		}, CfgEmbsanKASAN},
	}
	for _, g := range groups {
		lo, hi := 0.0, 0.0
		for _, r := range rows {
			if !g.filter(r) {
				continue
			}
			v, ok := r.Slowdown[g.cfg]
			if !ok {
				continue
			}
			if lo == 0 || v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo > 0 {
			fmt.Fprintf(&b, "  %-42s %.1fx - %.1fx\n", g.label, lo, hi)
		}
	}
	return b.String()
}
