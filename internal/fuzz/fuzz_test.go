package fuzz

import (
	"testing"

	"embsan/internal/core"
	"embsan/internal/emu"
	"embsan/internal/guest/elinux"
	"embsan/internal/guest/firmware"
	"embsan/internal/isa"
	"embsan/internal/kasm"
)

func bootedInstance(t *testing.T, img *kasm.Image, sanitizers []string) *core.Instance {
	t.Helper()
	inst, err := core.New(core.Config{
		Image:        img,
		Sanitizers:   sanitizers,
		StopOnReport: true,
		Machine:      emu.Config{MaxHarts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Boot(100_000_000); err != nil {
		t.Fatal(err)
	}
	inst.Snapshot()
	return inst
}

func TestSyscallFuzzingFindsSeededBugs(t *testing.T) {
	fw, err := elinux.Build(elinux.Board{
		Name: "fuzz-target", Arch: isa.ArchARM32E, Mode: kasm.SanNone,
		BugFns: []string{"nfs_acl_decode", "btusb_recv_bulk", "skb_clone_frag"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := bootedInstance(t, fw.Image, []string{"kasan"})
	f, err := New(Config{
		Instance: inst,
		Frontend: FrontendSyscall,
		Syscalls: len(fw.Syscalls),
		Seed:     1,
		MaxExecs: 25000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	found := map[string]bool{}
	for _, c := range res.Crashes {
		if c.Report != nil {
			found[c.Report.Signature()] = true
		}
	}
	if len(res.Crashes) < 3 {
		t.Errorf("found %d crashes, want the 3 seeded bugs (cover=%d, corpus=%d)",
			len(res.Crashes), res.Stats.CoverBlocks, res.Stats.CorpusSize)
		for _, c := range res.Crashes {
			t.Logf("crash: %s", c.Signature)
		}
	}
	// Minimized reproducers must be single records for these shallow bugs.
	for _, c := range res.Crashes {
		if c.Report == nil || c.Report.Bug.Short() == "Race" {
			continue
		}
		if len(c.Minimized) != 24 {
			t.Errorf("%s: minimized to %d bytes, want one 24-byte record", c.Signature, len(c.Minimized))
		}
	}
	if res.Stats.CoverBlocks == 0 || res.Stats.CorpusSize == 0 {
		t.Error("no coverage feedback collected")
	}
}

func TestByteFuzzingFindsParserBugs(t *testing.T) {
	fw, err := firmware.Build("TP-Link WDR-7660")
	if err != nil {
		t.Fatal(err)
	}
	inst := bootedInstance(t, fw.Image, []string{"kasan"})
	f, err := New(Config{
		Instance: inst,
		Frontend: FrontendBytes,
		Seeds:    fw.Seeds,
		Seed:     2,
		MaxExecs: 15000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	if len(res.Crashes) < 2 {
		t.Errorf("found %d crashes, want both parser bugs (cover=%d)",
			len(res.Crashes), res.Stats.CoverBlocks)
		for _, c := range res.Crashes {
			t.Logf("crash: %s", c.Signature)
		}
	}
	for _, c := range res.Crashes {
		if len(c.Minimized) > len(c.Input) {
			t.Errorf("%s: minimization grew the input", c.Signature)
		}
	}
}

func TestCrashDeduplication(t *testing.T) {
	fw, err := elinux.Build(elinux.Board{
		Name: "dedup", Arch: isa.ArchARM32E, Mode: kasm.SanNone,
		BugFns: []string{"nfs_acl_decode"},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := bootedInstance(t, fw.Image, []string{"kasan"})
	f, err := New(Config{
		Instance: inst, Frontend: FrontendSyscall,
		Syscalls: len(fw.Syscalls), Seed: 3, MaxExecs: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	// One seeded bug -> at most one sanitizer crash signature (plus possibly
	// distinct fault signatures, which these bugs do not produce).
	sigs := map[string]int{}
	for _, c := range res.Crashes {
		sigs[c.Signature]++
		if sigs[c.Signature] > 1 {
			t.Errorf("duplicate crash %s", c.Signature)
		}
	}
	if len(res.Crashes) > 1 {
		t.Errorf("crashes = %d, want 1 after dedup", len(res.Crashes))
	}
}

// TestCampaignDeterminism: identical seeds give identical campaigns.
func TestCampaignDeterminism(t *testing.T) {
	fw, err := elinux.Build(elinux.Board{
		Name: "det", Arch: isa.ArchARM32E, Mode: kasm.SanNone,
		BugFns: []string{"nfs_acl_decode"},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (int, int, []string) {
		inst := bootedInstance(t, fw.Image, []string{"kasan"})
		f, err := New(Config{
			Instance: inst, Frontend: FrontendSyscall,
			Syscalls: len(fw.Syscalls), Seed: 99, MaxExecs: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := f.Run()
		var sigs []string
		for _, c := range res.Crashes {
			sigs = append(sigs, c.Signature)
		}
		return res.Stats.CorpusSize, res.Stats.CoverBlocks, sigs
	}
	c1, b1, s1 := run()
	c2, b2, s2 := run()
	if c1 != c2 || b1 != b2 || len(s1) != len(s2) {
		t.Errorf("campaigns diverged: (%d,%d,%v) vs (%d,%d,%v)", c1, b1, s1, c2, b2, s2)
	}
	for i := range s1 {
		if i < len(s2) && s1[i] != s2[i] {
			t.Errorf("crash order diverged: %v vs %v", s1, s2)
		}
	}
}

func TestFuzzerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil instance accepted")
	}
	fw, _ := elinux.Build(elinux.Board{Name: "cfg", Arch: isa.ArchARM32E})
	inst := bootedInstance(t, fw.Image, []string{"kasan"})
	if _, err := New(Config{Instance: inst, Frontend: FrontendSyscall}); err == nil {
		t.Error("missing syscall table size accepted")
	}
}

// TestCoverageBitsetEdges: the first and last instruction words the
// translator can enter each count once, and a second Run on the same
// Fuzzer does not count blocks the first one already covered.
func TestCoverageBitsetEdges(t *testing.T) {
	fw, err := firmware.Build("TP-Link WDR-7660")
	if err != nil {
		t.Fatal(err)
	}
	inst := bootedInstance(t, fw.Image, []string{"kasan"})
	last := inst.Machine.RAMSize() - 4
	f, err := New(Config{
		Instance: inst, Frontend: FrontendBytes, Seeds: fw.Seeds,
		MaxExecs: len(fw.Seeds), ReachableLeaders: []uint32{emu.NullGuardSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		f.coverPC(emu.NullGuardSize)
		f.coverPC(last)
	}
	if f.coverCount != 2 || f.newCov != 2 || f.covLeaders != 1 {
		t.Fatalf("edge PCs: count=%d new=%d leaders=%d, want 2/2/1", f.coverCount, f.newCov, f.covLeaders)
	}

	first := f.Run().Stats.CoverBlocks
	if first <= 2 {
		t.Fatalf("seed replay covered %d blocks, want guest coverage on top of the 2 edge PCs", first)
	}
	if second := f.Run().Stats.CoverBlocks; second != first {
		t.Errorf("re-running the same seeds moved coverage %d -> %d", first, second)
	}
}
