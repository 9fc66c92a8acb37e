package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"embsan/internal/dsl"
	"embsan/internal/emu"
	"embsan/internal/guest/glib"
	"embsan/internal/isa"
	"embsan/internal/kasm"
)

// tinyFirmware builds a minimal bootable image with a named allocator and
// one post-ready OOB triggered through the mailbox.
func tinyFirmware(t *testing.T, mode kasm.SanitizeMode) *kasm.Image {
	t.Helper()
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E, Sanitize: mode})
	glib.AddBoot(b, glib.BootConfig{InitFn: "init", MainFn: "executor_loop"})
	glib.AddLib(b)
	b.GlobalRaw("slab_pool", 8192)
	b.GlobalRaw("next", 4)

	b.Func("init")
	b.Prologue(16)
	b.NoSan(func() {
		b.La(glib.T0, "next")
		b.La(glib.T1, "slab_pool")
		b.SW(glib.T1, glib.T0, 0)
	})
	b.La(glib.A0, "slab_pool")
	b.Li(glib.A1, 8192)
	b.SanPoisonHook(0xFC)
	b.Epilogue(16)

	b.Func("kmalloc")
	b.NoSan(func() {
		b.MV(glib.A1, glib.A0)
		b.La(glib.T0, "next")
		b.LW(glib.T1, glib.T0, 0)
		b.ADDI(glib.A0, glib.A1, 15)
		b.SRLI(glib.A0, glib.A0, 4)
		b.SLLI(glib.A0, glib.A0, 4)
		b.ADD(glib.A0, glib.A0, glib.T1)
		b.SW(glib.A0, glib.T0, 0)
		b.MV(glib.A0, glib.T1)
	})
	b.SanAllocHook()
	b.Ret()
	b.MarkAlloc("kmalloc")

	glib.AddByteExecutor(b, "handler")
	b.Func("handler") // any input: alloc 20, write [20]
	b.Prologue(16)
	b.Li(glib.A0, 20)
	b.Call("kmalloc")
	b.Li(glib.T0, 1)
	b.SB(glib.T0, glib.A0, 20)
	b.Li(glib.A0, 0)
	b.Epilogue(16)

	img, err := b.Link("tiny-" + mode.String())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil image accepted")
	}
}

func TestBootFailsWithoutReady(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	b.Func("_start")
	b.HALT() // never signals ready
	img, err := b.Link("noready")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(Config{Image: img, NoSanitizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Boot(1_000_000); err == nil {
		t.Error("Boot succeeded without a ready point")
	}
}

func TestPipelineRoundTripsThroughDSL(t *testing.T) {
	img := tinyFirmware(t, kasm.SanNone)
	inst, err := New(Config{Image: img, Sanitizers: []string{"kasan"}})
	if err != nil {
		t.Fatal(err)
	}
	// The probing artefacts must be valid DSL.
	text := inst.Probed.Text()
	file, err := dsl.Parse(text)
	if err != nil {
		t.Fatalf("probe artefacts do not parse: %v\n%s", err, text)
	}
	if len(file.Platforms) != 1 || len(file.Platforms[0].Allocs) != 1 {
		t.Errorf("platform: %+v", file.Platforms)
	}
	// The merged sanitizer spec carries the distilled resources.
	foundShadow := false
	for _, r := range inst.Spec.Resources {
		if r.Name == "shadow" {
			foundShadow = true
		}
	}
	if !foundShadow {
		t.Error("distilled spec lacks the shadow resource")
	}
}

func TestExecDetectsAndIsolates(t *testing.T) {
	img := tinyFirmware(t, kasm.SanNone)
	inst, err := New(Config{Image: img, Sanitizers: []string{"kasan"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Boot(10_000_000); err != nil {
		t.Fatal(err)
	}
	inst.Snapshot()
	for i := 0; i < 2; i++ {
		inst.Restore()
		res := inst.Exec([]byte{1, 2, 3}, 10_000_000)
		if !res.Crashed() || len(res.Reports) != 1 {
			t.Fatalf("run %d: crashed=%v reports=%d", i, res.Crashed(), len(res.Reports))
		}
		if !strings.HasPrefix(res.Reports[0].Location, "handler") {
			t.Errorf("location = %q", res.Reports[0].Location)
		}
	}
}

// TestTesterPreparedPlatformDSL: pre-probed DSL descriptions substitute for
// the Prober (the tester-prepared path of §3.4), including editing them —
// here the tester removes the allocator, losing heap tracking.
func TestTesterPreparedPlatformDSL(t *testing.T) {
	img := tinyFirmware(t, kasm.SanNone)
	// First, obtain descriptions the normal way.
	ref, err := New(Config{Image: img, Sanitizers: []string{"kasan"}})
	if err != nil {
		t.Fatal(err)
	}
	text := ref.Probed.Text()

	// Feed them back as tester-prepared input.
	inst, err := New(Config{Image: img, Sanitizers: []string{"kasan"}, PlatformText: text})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Probed != nil {
		t.Error("prober ran despite tester-prepared descriptions")
	}
	if err := inst.Boot(10_000_000); err != nil {
		t.Fatal(err)
	}
	inst.Snapshot()
	res := inst.Exec([]byte{1}, 10_000_000)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d with prepared descriptions", len(res.Reports))
	}

	// Garbage descriptions are rejected up front.
	if _, err := New(Config{Image: img, Sanitizers: []string{"kasan"}, PlatformText: "not dsl"}); err == nil {
		t.Error("invalid platform text accepted")
	}
	if _, err := New(Config{Image: img, Sanitizers: []string{"kasan"},
		PlatformText: "init { shadow_init; }"}); err == nil {
		t.Error("platform-less text accepted")
	}
}

func TestExecBudgetExpires(t *testing.T) {
	// A firmware whose executor never signals done: Exec must stop at the
	// instruction budget.
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E})
	glib.AddBoot(b, glib.BootConfig{MainFn: "spin"})
	glib.AddLib(b)
	b.Func("spin")
	b.Label("spin.l")
	b.J("spin.l")
	img, err := b.Link("spin")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(Config{Image: img, NoSanitizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Boot(1_000_000); err != nil {
		t.Fatal(err)
	}
	res := inst.Exec([]byte{1}, 20_000)
	if res.Done {
		t.Error("spin firmware reported done")
	}
	if res.Insts < 20_000 || res.Insts > 30_000 {
		t.Errorf("budget not respected: %d insts", res.Insts)
	}
}

func TestNoSanitizerCollectsNativeReports(t *testing.T) {
	img := tinyFirmware(t, kasm.SanNativeKASAN)
	inst, err := New(Config{Image: img, NoSanitizer: true})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Runtime != nil || inst.Probed != nil {
		t.Error("NoSanitizer attached a runtime anyway")
	}
	if err := inst.Boot(10_000_000); err != nil {
		t.Fatal(err)
	}
	res := inst.Exec([]byte{1}, 10_000_000)
	if len(res.Reports) == 0 {
		t.Fatal("native in-guest reports not collected")
	}
}

func TestEmbsanCUsesHypercallFastPath(t *testing.T) {
	img := tinyFirmware(t, kasm.SanEmbsanC)
	inst, err := New(Config{Image: img, Sanitizers: []string{"kasan"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Boot(10_000_000); err != nil {
		t.Fatal(err)
	}
	inst.Snapshot()
	res := inst.Exec([]byte{9}, 10_000_000)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	_ = emu.StopExit
}

// TestInlineCheckArmedByNew: New arms the in-template shadow check for every
// deployment the runtime allows — pure KASAN — and nowhere else. An armed
// deployment settles clean accesses in the template yet runs, reports and
// poisons exactly like its NoInlineCheck twin, and EnableInlineFastPath only
// reports the decision: it costs no retranslation.
func TestInlineCheckArmedByNew(t *testing.T) {
	img := tinyFirmware(t, kasm.SanNone)
	for _, tc := range []struct {
		name  string
		cfg   Config
		armed bool
	}{
		{"kasan", Config{Sanitizers: []string{"kasan"}}, true},
		{"kasan+kcsan", Config{Sanitizers: []string{"kasan", "kcsan"}}, false},
		{"no sanitizer", Config{NoSanitizer: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(noInline bool) (*Instance, ExecResult) {
				t.Helper()
				cfg := tc.cfg
				cfg.Image, cfg.NoInlineCheck = img, noInline
				inst, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := inst.Boot(10_000_000); err != nil {
					t.Fatal(err)
				}
				inst.Snapshot()
				return inst, inst.Exec([]byte{1}, 10_000_000)
			}
			inst, res := run(false)
			if got := inst.EnableInlineFastPath(nil); got != tc.armed {
				t.Fatalf("EnableInlineFastPath() = %v, want %v", got, tc.armed)
			}
			fast := inst.Machine.Metrics().Counts()["emu.inline.fast"]
			if tc.armed != (fast > 0) {
				t.Errorf("armed=%v but InlineFast=%d", tc.armed, fast)
			}

			ref, refRes := run(true)
			if !tc.cfg.NoSanitizer && len(refRes.Reports) != 1 {
				t.Fatalf("reference run reported %d bugs, want the seeded OOB", len(refRes.Reports))
			}
			if refRes.Insts == 0 || !reflect.DeepEqual(res, refRes) {
				t.Errorf("armed run diverged from NoInlineCheck:\n got %+v\nwant %+v", res, refRes)
			}
			if inst.Runtime != nil && !bytes.Equal(inst.Runtime.KASANEngine().Shadow().Bytes(),
				ref.Runtime.KASANEngine().Shadow().Bytes()) {
				t.Error("shadow diverged from NoInlineCheck")
			}
			if rc := ref.Machine.Metrics().Counts(); rc["emu.inline.fast"]+rc["emu.inline.slow"] != 0 {
				t.Errorf("NoInlineCheck deployment ran armed steps: %+v", rc)
			}

			// A repeat of the same input on the warm cache translates nothing,
			// EnableInlineFastPath or not.
			misses := inst.Machine.Metrics().Counter("emu.tb.misses")
			before := misses.Value()
			inst.EnableInlineFastPath(nil)
			inst.Restore()
			inst.Exec([]byte{1}, 10_000_000)
			if d := misses.Value() - before; d != 0 {
				t.Errorf("repeat after EnableInlineFastPath translated %d blocks", d)
			}
		})
	}
}
