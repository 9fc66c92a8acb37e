package fuzz

import (
	"testing"

	"embsan/internal/core"
	"embsan/internal/guest/firmware"
	"embsan/internal/obs"
)

// TestExecPathZeroAlloc pins the campaign steady state: once a campaign has
// warmed the deployment and the fuzzer, one exec — Restore, Exec of an input
// that does not crash, and the fuzzer's next input — allocates nothing. It
// covers both frontends: InfiniTime (bytes, EMBSAN-D allocator hooks) and
// OpenWRT-armvirt (syscall programs, EMBSAN-C dummy-library hypercalls).
func TestExecPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		frontend Frontend
	}{
		{"InfiniTime", FrontendBytes},
		{"OpenWRT-armvirt", FrontendSyscall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fw, err := firmware.Build(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			inst := bootedInstance(t, fw.Image, []string{"kasan"})
			f, err := New(Config{
				Instance: inst,
				Frontend: tc.frontend,
				Syscalls: len(fw.Syscalls),
				Seeds:    fw.Seeds,
				Seed:     3,
				MaxExecs: 3000,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := f.Run()
			if len(res.Corpus) == 0 {
				t.Fatal("the warm-up campaign admitted no input")
			}
			input := allocatingInput(t, inst, res.Corpus)
			inst.Machine.SetCoverageHook(f.coverPC)
			defer inst.Machine.SetCoverageHook(nil)
			for range 3 { // warm every reused buffer on this input
				inst.Restore()
				inst.Exec(input, 2_000_000)
				f.nextInput()
			}
			got := testing.AllocsPerRun(200, func() {
				inst.Restore()
				if r := inst.Exec(input, 2_000_000); r.Crashed() || !r.Done {
					t.Fatalf("corpus input did not complete cleanly: stop %v, %d reports", r.Stop, len(r.Reports))
				}
				f.nextInput()
			})
			if got != 0 {
				t.Errorf("one exec allocates %.0f times, want 0", got)
			}
		})
	}
}

// allocatingInput returns a corpus input whose exec goes through the
// sanitizer's allocator interception, so the zero-allocation check covers
// the KASAN chunk table and the allocator-hook stacks.
func allocatingInput(t *testing.T, inst *core.Instance, corpus [][]byte) []byte {
	t.Helper()
	ring := obs.NewRing(1 << 16)
	inst.SetTrace(ring)
	defer inst.SetTrace(nil)
	for _, in := range corpus {
		inst.Restore()
		ring.Reset()
		inst.Exec(in, 2_000_000)
		for _, e := range ring.Events() {
			if e.Kind == obs.EvAllocExit {
				return in
			}
		}
	}
	t.Fatal("no corpus input reaches the allocator")
	return nil
}
