package exps

import (
	"testing"

	"embsan/internal/fuzz"
	"embsan/internal/guest/firmware"
	"embsan/internal/san"
	"embsan/internal/sched"
	"embsan/internal/static"
	"embsan/internal/static/races"
)

// TestRaceGuidedBeatsUniform is the ground-truth experiment: the seeded
// freertos race is flagged statically and found dynamically, and the
// lockset-guided campaign needs strictly fewer executions than uniform
// sampling at the same budget and seed. Both campaigns are virtual-clock
// deterministic, so the margin is stable across machines.
func TestRaceGuidedBeatsUniform(t *testing.T) {
	fw, err := firmware.BuildRaceTwin()
	if err != nil {
		t.Fatal(err)
	}
	an, err := static.Analyze(fw.Image)
	if err != nil {
		t.Fatal(err)
	}
	if len(races.Analyze(an, races.Options{}).Pairs) == 0 {
		t.Fatal("static triage emitted no candidate pairs")
	}
	guided := raceFindExecs(t, fw, false)
	uniform := raceFindExecs(t, fw, true)
	t.Logf("%s: guided %d execs, uniform %d execs (0 = missed)", fw.Name, guided, uniform)
	if guided == 0 {
		t.Fatal("guided campaign missed the seeded race")
	}
	if uniform != 0 && guided >= uniform {
		t.Errorf("guided (%d execs) not faster than uniform (%d execs)", guided, uniform)
	}
}

// raceFindExecs runs one 2000-exec campaign on the race twin and returns
// the executions consumed when the first race report fired (0 = missed).
func raceFindExecs(t *testing.T, fw *firmware.Firmware, noGuide bool) int {
	t.Helper()
	found := 0
	for _, crash := range raceCrashes(t, fw, 2000, 7, noGuide) {
		if found == 0 || crash.Execs < found {
			found = crash.Execs
		}
	}
	return found
}

// TestRaceGuidedCampaignDeterministicAcrossWorkers: guided-KCSAN campaigns
// on the race twin merge byte-identically for every worker count — the
// static priority map must not break the worker-count oracle.
func TestRaceGuidedCampaignDeterministicAcrossWorkers(t *testing.T) {
	fw, err := firmware.BuildRaceTwin()
	if err != nil {
		t.Fatal(err)
	}
	fws := []*firmware.Firmware{fw}
	opts := CampaignOptions{Execs: 350, Seed: 3, Repeats: 2}

	prints := make([]string, 0, 2)
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		run, err := RunCampaignSet(fws, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		prints = append(prints, campaignFingerprint(run.Campaigns))
	}
	if prints[0] != prints[1] {
		t.Errorf("guided campaigns diverged across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			prints[0], prints[1])
	}
}

// raceCrashes runs one campaign on fw and returns the crashes that carry a
// race report.
func raceCrashes(t *testing.T, fw *firmware.Firmware, execs int, seed int64, noGuide bool) []*fuzz.Crash {
	t.Helper()
	w, err := warmUp(fw, seed, false, noGuide)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.runOne(fw, sched.Split(seed, 0), execs)
	if err != nil {
		t.Fatal(err)
	}
	var out []*fuzz.Crash
	for _, crash := range c.Raw.Crashes {
		if crash.Report != nil && crash.Report.Bug == san.BugRace {
			out = append(out, crash)
		}
	}
	return out
}

// raceAddrs collects the distinct racing addresses one campaign caught. A
// race is identified by the contended address, not the report signature:
// the same race reports from whichever side observed the collision first,
// and guidance legitimately shifts which side that is.
func raceAddrs(t *testing.T, fw *firmware.Firmware, execs int, seed int64, noGuide bool) map[uint32]bool {
	t.Helper()
	addrs := map[uint32]bool{}
	for _, crash := range raceCrashes(t, fw, execs, seed, noGuide) {
		addrs[crash.Report.Addr] = true
	}
	return addrs
}

// TestRaceGuidanceNoFalseElision: every race the uniform campaign catches,
// the guided campaign catches too at the same budget — guidance may only
// move the sampling budget away from proven-safe sites, never away from a
// real race.
func TestRaceGuidanceNoFalseElision(t *testing.T) {
	fw, err := firmware.BuildRaceTwin()
	if err != nil {
		t.Fatal(err)
	}
	const execs, seed = 2000, 7
	uniform := raceAddrs(t, fw, execs, seed, true)
	guided := raceAddrs(t, fw, execs, seed, false)
	if len(uniform) == 0 {
		t.Fatal("uniform campaign found no races; differential is vacuous")
	}
	for addr := range uniform {
		if !guided[addr] {
			t.Errorf("uniform caught a race at %#x but guided did not — guidance hid a real race", addr)
		}
	}
}
