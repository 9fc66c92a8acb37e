package exps

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"embsan/internal/emu"
	"embsan/internal/guest/firmware"
)

// The translation-engine fast paths — TB exit chaining and the in-template
// shadow check — are pure accelerations: they may only change how fast the
// machine gets through a block graph, never anything a campaign can observe.
// The tests in this file are the differential oracle for that contract. The
// slow reference is the same engine with CampaignOptions.NoFastPaths /
// emu.Config.NoChain set and the in-template check unarmed, i.e. the
// pre-fast-path dispatcher on every transfer.

// execDigest canonically serialises everything one execution exposes: the
// stop state, the retired-instruction count, the report signatures, and
// digests of guest RAM and of the sanitizer shadow. Fast and slow engines
// must agree on every field after every execution.
func execDigest(w *warmed, input []byte) string {
	inst := w.inst
	inst.Restore()
	res := inst.Exec(input, 100_000_000)
	ram, err := inst.Machine.ReadBytes(emu.NullGuardSize, inst.Machine.RAMSize()-emu.NullGuardSize)
	if err != nil {
		return "ram-unreadable: " + err.Error()
	}
	ramSum := sha256.Sum256(ram)
	var shadowSum [sha256.Size]byte
	if rt := inst.Runtime; rt != nil && rt.KASANEngine() != nil {
		shadowSum = sha256.Sum256(rt.KASANEngine().Shadow().Bytes())
	}
	var sigs strings.Builder
	for _, r := range res.Reports {
		sigs.WriteString(r.Signature())
		sigs.WriteByte(';')
	}
	return fmt.Sprintf("stop=%v done=%v code=%d insts=%d icnt=%d fault=%v reports=%s ram=%x shadow=%x",
		res.Stop, res.Done, res.DoneCode, res.Insts, inst.Machine.ICount(),
		inst.Machine.Fault(), sigs.String(), ramSum, shadowSum)
}

// TestFastPathLockstepOracle runs the fast and the slow engine in lockstep
// over the same deterministic workload — every seeded bug trigger and every
// corpus seed, one Restore+Exec each — and requires byte-identical execution
// digests at every step. The firmware picks cover the deployment shapes:
// EMBSAN-C (inline SANCK sites: armvirt, rk3566), EMBSAN-D (inline
// Mem-probe sites: bcm63xx) and RTOS images, one of them (LiteOS on
// stm32mp1) with suppressed allocator ranges.
func TestFastPathLockstepOracle(t *testing.T) {
	for _, name := range []string{"OpenWRT-armvirt", "OpenWRT-bcm63xx", "InfiniTime",
		"OpenHarmony-stm32mp1", "OpenHarmony-rk3566"} {
		t.Run(name, func(t *testing.T) {
			fw := buildSubset(t, name)[0]
			fast, err := warmUp(fw, 7, false, false, false)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := warmUp(fw, 7, false, true, false)
			if err != nil {
				t.Fatal(err)
			}
			before := fast.inst.Machine.Counters()
			step := 0
			replay := func(input []byte) {
				step++
				f, s := execDigest(fast, input), execDigest(slow, input)
				if f != s {
					t.Fatalf("step %d diverged:\n--- fast ---\n%s\n--- slow ---\n%s", step, f, s)
				}
			}
			for _, b := range fw.Bugs {
				if b.NeedsKCSAN {
					continue // racing triggers depend on watchpoint timing
				}
				replay(b.Trigger)
			}
			for _, s := range fw.Seeds {
				replay(s)
			}
			d := fast.inst.Machine.Counters().Sub(before)
			if d.ChainHits == 0 {
				t.Errorf("fast engine followed no exit chains over %d executions (%d dispatches)",
					step, d.Dispatches)
			}
			slowD := slow.inst.Machine.Counters()
			if slowD.ChainHits != 0 || slowD.InlineFast != 0 {
				t.Errorf("slow engine engaged fast paths: chain=%d inline=%d",
					slowD.ChainHits, slowD.InlineFast)
			}
		})
	}
}

// TestFastPathInlineEngages: on every pure-KASAN registry deployment the
// armed template must actually settle dispatches without the delegate —
// otherwise the in-template check silently never runs there and the
// lockstep oracle above proves nothing about it.
func TestFastPathInlineEngages(t *testing.T) {
	fws, err := firmware.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, fw := range fws {
		w, err := warmUp(fw, 7, false, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if w.inst.Runtime.KCSANEngine() != nil {
			continue // KCSAN observes clean dispatches: never armed
		}
		before := w.inst.Machine.Counters()
		for _, s := range fw.Seeds {
			w.inst.Restore()
			w.inst.Exec(s, 100_000_000)
		}
		if d := w.inst.Machine.Counters().Sub(before); d.InlineFast == 0 {
			t.Errorf("%s: no inline fast-path hit over %d seeds (%d mem probes, %d sanck traps)",
				fw.Name, len(fw.Seeds), d.MemProbes, d.SanckTraps)
		}
	}
}

// TestFastPathCampaignDiffSmoke is the always-on campaign-level oracle: two
// firmware, full tracing, fast vs slow, byte-identical fingerprints, bug
// tables and per-campaign event streams. The registry-wide version below
// covers the remaining firmware without -short.
func TestFastPathCampaignDiffSmoke(t *testing.T) {
	fws := buildSubset(t, "InfiniTime", "OpenWRT-bcm63xx")
	base := CampaignOptions{Execs: 350, Seed: 3, Repeats: 2, Workers: 1, Trace: true, Metrics: true}

	fast := base
	runFast, err := RunCampaignSet(fws, fast)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.NoFastPaths = true
	runSlow, err := RunCampaignSet(fws, slow)
	if err != nil {
		t.Fatal(err)
	}
	compareCampaignRuns(t, runFast.Campaigns, runSlow.Campaigns)

	var chained uint64
	for _, c := range runFast.Campaigns {
		chained += c.Engine.ChainHits
	}
	if chained == 0 {
		t.Error("fast campaigns followed no exit chains")
	}
	for _, c := range runSlow.Campaigns {
		e := c.Engine
		if e.ChainHits != 0 || e.InlineFast != 0 || e.InlineSlow != 0 {
			t.Errorf("%s: NoFastPaths campaign engaged fast paths: %+v", c.Firmware.Name, e)
		}
	}
}

// TestFastPathCampaignTablesIdentical is the registry-wide end-to-end
// oracle, the fast-path analogue of TestElideCampaignTablesIdentical: the
// full Table 3/4 campaigns with the fast paths on must reproduce the slow
// engine's tables byte for byte — same 41 bugs, same executions, same
// coverage.
func TestFastPathCampaignTablesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns are long; run without -short")
	}
	opts := CampaignOptions{Execs: 30000, Seed: 7, Workers: 1, Metrics: true}
	runFast, err := RunCampaignSet(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NoFastPaths = true
	runSlow, err := RunCampaignSet(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range runFast.Campaigns {
		total += len(c.Found)
	}
	if total != 41 {
		t.Errorf("fast campaigns found %d bugs, want 41\n%s", total, FormatCampaignStats(runFast.Campaigns))
	}
	compareCampaignRuns(t, runFast.Campaigns, runSlow.Campaigns)
}

// compareCampaignRuns asserts that two campaign sets are observably
// identical: fingerprints (stats, findings, crashes, corpora), the rendered
// bug tables, the schedule-independent phase components and — when captured —
// the virtual-time event streams, event by event. The translate phase is
// deliberately exempt: it measures TB-cache warmth, which the fast paths
// exist to change.
func compareCampaignRuns(t *testing.T, fast, slow []*Campaign) {
	t.Helper()
	if f, s := campaignFingerprint(fast), campaignFingerprint(slow); f != s {
		t.Errorf("campaign fingerprints diverged:\n--- fast ---\n%s\n--- slow ---\n%s", f, s)
	}
	if f, s := FormatTable3(fast), FormatTable3(slow); f != s {
		t.Errorf("Table 3 diverged:\n--- fast ---\n%s\n--- slow ---\n%s", f, s)
	}
	if f, s := FormatTable4(fast), FormatTable4(slow); f != s {
		t.Errorf("Table 4 diverged:\n--- fast ---\n%s\n--- slow ---\n%s", f, s)
	}
	for i := range fast {
		fc, sc := fast[i], slow[i]
		if fc.Phases.Execute != sc.Phases.Execute ||
			fc.Phases.Sanitize != sc.Phases.Sanitize ||
			fc.Phases.Snapshot != sc.Phases.Snapshot {
			t.Errorf("campaign %d (%s): phases diverged: fast %+v, slow %+v",
				i, fc.Firmware.Name, fc.Phases, sc.Phases)
		}
		if fc.Engine.SanckTraps != sc.Engine.SanckTraps || fc.Engine.MemProbes != sc.Engine.MemProbes {
			t.Errorf("campaign %d (%s): dispatch accounting diverged: fast sanck=%d mem=%d, slow sanck=%d mem=%d",
				i, fc.Firmware.Name, fc.Engine.SanckTraps, fc.Engine.MemProbes,
				sc.Engine.SanckTraps, sc.Engine.MemProbes)
		}
		if len(fc.Trace) != len(sc.Trace) {
			t.Errorf("campaign %d (%s): %d fast events vs %d slow", i, fc.Firmware.Name, len(fc.Trace), len(sc.Trace))
			continue
		}
		for j := range fc.Trace {
			if fc.Trace[j] != sc.Trace[j] {
				t.Errorf("campaign %d (%s): event %d diverged: fast %+v, slow %+v",
					i, fc.Firmware.Name, j, fc.Trace[j], sc.Trace[j])
				break
			}
		}
	}
}
