// Benchmarks regenerating the paper's evaluation artefacts (one bench per
// table and figure series) plus the ablation benches DESIGN.md calls out.
// Figure 2's slowdown factors are the ratios between the BenchmarkFigure2*
// series' ns/op on identical workloads.
package embsan_test

import (
	"flag"
	"fmt"
	"testing"

	"embsan/internal/core"
	"embsan/internal/emu"
	"embsan/internal/exps"
	"embsan/internal/guest/elinux"
	"embsan/internal/guest/firmware"
	"embsan/internal/guest/gabi"
	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/san"
)

// ---- Table 1 ----

// BenchmarkTable1Registry builds all eleven evaluation firmware images.
func BenchmarkTable1Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fws, err := firmware.BuildAll()
		if err != nil {
			b.Fatal(err)
		}
		if len(fws) != 11 {
			b.Fatal("registry incomplete")
		}
	}
}

// ---- Table 2 ----

// BenchmarkTable2Replay replays the 25 known-bug reproducers under
// EMBSAN-D (the heavier of the two modes).
func BenchmarkTable2Replay(b *testing.B) {
	fw, err := firmware.BuildSyzbotCorpus(kasm.SanNone)
	if err != nil {
		b.Fatal(err)
	}
	inst := mustBoot(b, fw.Image, []string{"kasan"}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bug := range fw.Bugs {
			inst.Restore()
			res := inst.Exec(gabi.Prog{bug.Trigger()}.Encode(), 50_000_000)
			if len(res.Reports) == 0 && !bug.Def.NeedsCompileTime() {
				b.Fatalf("%s not detected", bug.Def.Fn)
			}
		}
	}
}

// ---- Table 3 / Table 4 ----

// BenchmarkTable3Campaign runs a bounded fuzzing campaign against the
// bcm63xx firmware (EMBSAN-D, five seeded bugs).
func BenchmarkTable3Campaign(b *testing.B) {
	fw, err := firmware.Build("OpenWRT-bcm63xx")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := exps.RunCampaign(fw, exps.CampaignOptions{Execs: 3000, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = c
	}
}

// campaignSeed parameterises the campaign benchmark series: the default
// matches the evaluation seed, and sweeping it checks the throughput numbers
// are not an artefact of one lucky corpus trajectory.
var campaignSeed = flag.Int64("campaign-seed", 7, "base seed for the campaign benchmark series")

// BenchmarkParallelCampaigns compares the fresh-boot serial runner against
// the pooled scheduler (internal/sched) on a multi-campaign workload: the
// pool warms each firmware once per worker and rewinds it by
// snapshot/restore between campaigns, so the per-campaign boot+labelling
// cost is amortised away. The pooled/4-workers series should sustain at
// least twice the serial runner's campaign throughput. Beyond campaigns/s,
// each series reports execs/s (the paper's throughput unit) and chain-hit%
// (the fraction of block transfers the translation engine resolved through
// an exit chain instead of the dispatcher).
func BenchmarkParallelCampaigns(b *testing.B) {
	fw, err := firmware.Build("OpenWRT-x86_64")
	if err != nil {
		b.Fatal(err)
	}
	const repeats, execs = 32, 15
	bench := func(b *testing.B, run func() ([]*exps.Campaign, error)) {
		var execsDone, chainHits, transfers uint64
		for i := 0; i < b.N; i++ {
			cs, err := run()
			if err != nil {
				b.Fatal(err)
			}
			for _, c := range cs {
				execsDone += uint64(c.Stats.Execs)
				chainHits += c.Engine["emu.chain.hits"]
				transfers += c.Engine["emu.chain.hits"] + c.Engine["emu.dispatch.entries"]
			}
		}
		sec := b.Elapsed().Seconds()
		b.ReportMetric(float64(b.N*repeats)/sec, "campaigns/s")
		b.ReportMetric(float64(execsDone)/sec, "execs/s")
		if transfers > 0 {
			b.ReportMetric(100*float64(chainHits)/float64(transfers), "chain-hit%")
		}
	}
	b.Run("serial-fresh", func(b *testing.B) {
		bench(b, func() ([]*exps.Campaign, error) {
			out := make([]*exps.Campaign, 0, repeats)
			for r := 0; r < repeats; r++ {
				c, err := exps.RunCampaign(fw, exps.CampaignOptions{Execs: execs, Seed: *campaignSeed})
				if err != nil {
					return nil, err
				}
				out = append(out, c)
			}
			return out, nil
		})
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("pooled-%d-workers", workers), func(b *testing.B) {
			bench(b, func() ([]*exps.Campaign, error) {
				opts := exps.CampaignOptions{Execs: execs, Seed: *campaignSeed, Workers: workers, Repeats: repeats}
				run, err := exps.RunCampaignSet([]*firmware.Firmware{fw}, opts)
				if err != nil {
					return nil, err
				}
				return run.Campaigns, nil
			})
		})
	}
}

// ---- Figure 2 series ----

func figure2Workload(fw *firmware.Firmware) [][]byte {
	var out [][]byte
	for i := uint32(0); i < 12; i++ {
		p := gabi.Prog{
			{NR: i % 4, NArgs: 4, Args: [4]uint32{i * 13 % 200, i % 7, i % 11, i % 5}},
			{NR: (i + 1) % 4, NArgs: 4, Args: [4]uint32{80, 1, 0, 0}},
			{NR: (i + 2) % 4, NArgs: 4, Args: [4]uint32{40, 2, 3, 4}},
		}
		out = append(out, p.Encode())
	}
	return out
}

func mustBoot(b *testing.B, img *kasm.Image, sans []string, noSan bool) *core.Instance {
	b.Helper()
	inst, err := core.New(core.Config{
		Image:         img,
		Sanitizers:    sans,
		NoSanitizer:   noSan,
		Machine:       emu.Config{MaxHarts: 2},
		KCSAN:         san.KCSANConfig{SampleInterval: 20, Delay: 2000},
		NoInlineCheck: true, // Figure 2's engine, as in exps.measure
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.Boot(500_000_000); err != nil {
		b.Fatal(err)
	}
	inst.Snapshot()
	return inst
}

func benchWorkload(b *testing.B, name string, mode kasm.SanitizeMode, sans []string) {
	b.Helper()
	fw, err := firmware.BuildVariant(name, mode)
	if err != nil {
		b.Fatal(err)
	}
	inst := mustBoot(b, fw.Image, sans, len(sans) == 0)
	workload := figure2Workload(fw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range workload {
			res := inst.Exec(in, 100_000_000)
			if !res.Done {
				b.Fatalf("workload stalled: %v %v", res.Stop, res.Fault)
			}
		}
	}
}

func BenchmarkFigure2Bare(b *testing.B) {
	benchWorkload(b, "OpenWRT-x86_64", kasm.SanNone, nil)
}

func BenchmarkFigure2EmbsanCKASAN(b *testing.B) {
	benchWorkload(b, "OpenWRT-x86_64", kasm.SanEmbsanC, []string{"kasan"})
}

func BenchmarkFigure2EmbsanDKASAN(b *testing.B) {
	benchWorkload(b, "OpenWRT-x86_64", kasm.SanNone, []string{"kasan"})
}

func BenchmarkFigure2NativeKASAN(b *testing.B) {
	benchWorkload(b, "OpenWRT-x86_64", kasm.SanNativeKASAN, nil)
}

func BenchmarkFigure2EmbsanKCSAN(b *testing.B) {
	benchWorkload(b, "OpenWRT-x86_64", kasm.SanEmbsanC, []string{"kcsan"})
}

func BenchmarkFigure2NativeKCSAN(b *testing.B) {
	benchWorkload(b, "OpenWRT-x86_64", kasm.SanNativeKCSAN, nil)
}

func BenchmarkFigure2RTOSEmbsanKASAN(b *testing.B) {
	fw, err := firmware.Build("InfiniTime")
	if err != nil {
		b.Fatal(err)
	}
	inst := mustBoot(b, fw.Image, []string{"kasan"}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range fw.Seeds {
			if res := inst.Exec(in, 100_000_000); !res.Done {
				b.Fatal("workload stalled")
			}
		}
	}
}

// ---- Ablations (DESIGN.md) ----

// BenchmarkAblationProbeFusion compares translation-template probe
// insertion against paying an (empty) callback on every memory access:
// the difference is the cost the template approach avoids when no probe
// is registered.
func BenchmarkAblationProbeFusion(b *testing.B) {
	fw, err := firmware.BuildVariant("OpenWRT-x86_64", kasm.SanNone)
	if err != nil {
		b.Fatal(err)
	}
	workload := figure2Workload(fw)
	run := func(b *testing.B, probe bool) {
		inst := mustBoot(b, fw.Image, nil, true)
		if probe {
			inst.Machine.SetProbes(emu.ProbeSet{Mem: func(ev *emu.MemEvent) {}})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, in := range workload {
				if res := inst.Exec(in, 100_000_000); !res.Done {
					b.Fatal("stalled")
				}
			}
		}
	}
	b.Run("no-probes", func(b *testing.B) { run(b, false) })
	b.Run("empty-probe-every-access", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationHypercallFastPath compares the EMBSAN-C hypercall fast
// path (SANCK-only interception) against routing the same compile-time-
// instrumented image through the generic every-access probes as well.
func BenchmarkAblationHypercallFastPath(b *testing.B) {
	fw, err := firmware.BuildVariant("OpenWRT-x86_64", kasm.SanEmbsanC)
	if err != nil {
		b.Fatal(err)
	}
	workload := figure2Workload(fw)
	run := func(b *testing.B, fastPath bool) {
		inst := mustBoot(b, fw.Image, []string{"kasan"}, false)
		if !fastPath {
			// Disable the fast path: check every executed access instead of
			// only the compile-time SANCK sites.
			rt := inst.Runtime
			inst.Machine.SetProbes(emu.ProbeSet{
				Mem:   func(ev *emu.MemEvent) { rt.KASANEngine().CheckAccess(ev.Addr, ev.Size, ev.Write, ev.PC, ev.Hart) },
				Sanck: func(ev *emu.MemEvent) {},
			})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, in := range workload {
				if res := inst.Exec(in, 100_000_000); !res.Done {
					b.Fatal("stalled")
				}
			}
		}
	}
	b.Run("hypercall-fast-path", func(b *testing.B) { run(b, true) })
	b.Run("generic-probes", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationTBCache measures the translation-block cache.
func BenchmarkAblationTBCache(b *testing.B) {
	fw, err := firmware.BuildVariant("OpenWRT-x86_64", kasm.SanNone)
	if err != nil {
		b.Fatal(err)
	}
	workload := figure2Workload(fw)
	run := func(b *testing.B, noCache bool) {
		inst, err := core.New(core.Config{
			Image:       fw.Image,
			NoSanitizer: true,
			Machine:     emu.Config{MaxHarts: 2, NoTBCache: noCache},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.Boot(500_000_000); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, in := range workload {
				if res := inst.Exec(in, 100_000_000); !res.Done {
					b.Fatal("stalled")
				}
			}
		}
	}
	b.Run("cached", func(b *testing.B) { run(b, false) })
	b.Run("uncached", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationKCSANSampling sweeps the watchpoint sampling interval.
func BenchmarkAblationKCSANSampling(b *testing.B) {
	fw, err := firmware.BuildVariant("OpenWRT-x86_64", kasm.SanEmbsanC)
	if err != nil {
		b.Fatal(err)
	}
	workload := figure2Workload(fw)
	for _, interval := range []uint64{4, 20, 61, 499} {
		b.Run(intervalName(interval), func(b *testing.B) {
			inst, err := core.New(core.Config{
				Image:      fw.Image,
				Sanitizers: []string{"kcsan"},
				Machine:    emu.Config{MaxHarts: 2},
				KCSAN:      san.KCSANConfig{SampleInterval: interval, Delay: 2000},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := inst.Boot(500_000_000); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, in := range workload {
					if res := inst.Exec(in, 100_000_000); !res.Done {
						b.Fatal("stalled")
					}
				}
			}
		})
	}
}

func intervalName(v uint64) string {
	switch v {
	case 4:
		return "interval-4"
	case 20:
		return "interval-20"
	case 61:
		return "interval-61"
	default:
		return "interval-499"
	}
}

// BenchmarkAblationUnifiedShadow compares the unified shadow (one array
// serving all sanitizer functionalities) against split per-sanitizer
// shadows on the poison/unpoison/check cycle of the KASAN hot path.
func BenchmarkAblationUnifiedShadow(b *testing.B) {
	const ram = 1 << 22
	run := func(b *testing.B, shadows []*san.Shadow) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr := uint32(0x1000 + (i%1024)*64)
			for _, s := range shadows {
				s.Poison(addr, 64, san.CodeHeapUninit)
				s.Unpoison(addr, 48)
			}
			for _, s := range shadows {
				if _, _, ok := s.Check(addr, 48); !ok {
					b.Fatal("false positive")
				}
			}
		}
	}
	b.Run("unified", func(b *testing.B) { run(b, []*san.Shadow{san.NewShadow(ram)}) })
	b.Run("split", func(b *testing.B) {
		run(b, []*san.Shadow{san.NewShadow(ram), san.NewShadow(ram)})
	})
}

// BenchmarkBuildSyzbotCorpus measures the toolchain building the largest
// kernel (25 seeded bugs + base modules).
func BenchmarkBuildSyzbotCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := elinux.Build(elinux.Board{
			Name: "bench", Arch: isa.ArchX86E, Mode: kasm.SanEmbsanC, Table2: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
