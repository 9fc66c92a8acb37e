package exps

import (
	"fmt"
	"strings"

	"embsan/internal/core"
	"embsan/internal/emu"
	"embsan/internal/guest/firmware"
	"embsan/internal/kasm"
	"embsan/internal/san"
)

// The elision experiment measures what the static safety proofs buy at run
// time: each firmware is deployed twice with identical seeds — once plain,
// once with core.Config.Elide — and the same deterministic boot + input
// replay is driven through both. The FENCE-pad rewrite (EMBSAN-C) and the
// safe-site translation (EMBSAN-D) keep the instruction stream bit-identical,
// so the two runs differ only in how many sanitizer dispatches fire, which
// is exactly the pair of counters the table below compares.

// ElisionStat is the measured dispatch saving on one firmware.
type ElisionStat struct {
	Firmware string
	Mode     string // "embsan-c" or "embsan-d"
	// Dispatch counts the dynamic sanitizer dispatches of the plain run:
	// SANCK traps for EMBSAN-C, Mem-probe deliveries for EMBSAN-D.
	Dispatch uint64
	// Elided counts the dispatches the proofs removed in the elided run:
	// executed FENCE pads, or proven accesses that skipped the probe.
	Elided uint64
	// Reports is the number of sanitizer reports, identical in both runs
	// by construction (the experiment fails otherwise).
	Reports int
}

// Frac returns the elided fraction of the plain run's dispatches.
func (s ElisionStat) Frac() float64 {
	total := s.Dispatch
	if total == 0 {
		return 0
	}
	return float64(s.Elided) / float64(total)
}

// RunElisionStats deploys each firmware (nil = all Table 1 firmware) twice —
// plain and elided — replays the same deterministic input set through both,
// and tallies the dispatch saving. It returns an error if the two runs of
// any firmware disagree on report count or on the dispatch-conservation
// identity plain.dispatch == elided.dispatch + elided.elided, both of which
// the pad-preserving rewrite guarantees.
func RunElisionStats(fws []*firmware.Firmware, seed int64) ([]ElisionStat, error) {
	if fws == nil {
		var err error
		fws, err = firmware.BuildAll()
		if err != nil {
			return nil, err
		}
	}
	var out []ElisionStat
	for _, fw := range fws {
		plain, preports, err := elisionRun(fw, seed, false)
		if err != nil {
			return nil, err
		}
		elided, ereports, err := elisionRun(fw, seed, true)
		if err != nil {
			return nil, err
		}
		st := ElisionStat{Firmware: fw.Name, Reports: len(preports)}
		if fw.Image.Meta.Sanitize == kasm.SanEmbsanC {
			st.Mode = "embsan-c"
			st.Dispatch = plain.SanckTraps
			st.Elided = elided.SanckElided
			if plain.SanckTraps != elided.SanckTraps+elided.SanckElided {
				return nil, fmt.Errorf("exps: %s: trap conservation broken: %d plain vs %d+%d elided",
					fw.Name, plain.SanckTraps, elided.SanckTraps, elided.SanckElided)
			}
		} else {
			st.Mode = "embsan-d"
			st.Dispatch = plain.MemProbes
			st.Elided = elided.MemElided
			if plain.MemProbes != elided.MemProbes+elided.MemElided {
				return nil, fmt.Errorf("exps: %s: probe conservation broken: %d plain vs %d+%d elided",
					fw.Name, plain.MemProbes, elided.MemProbes, elided.MemElided)
			}
		}
		if len(preports) != len(ereports) {
			return nil, fmt.Errorf("exps: %s: elision changed findings: %d vs %d reports",
				fw.Name, len(preports), len(ereports))
		}
		for i := range preports {
			if preports[i] != ereports[i] {
				return nil, fmt.Errorf("exps: %s: elision changed finding %d: %s vs %s",
					fw.Name, i, preports[i], ereports[i])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// elisionRun boots fw once and replays its bug triggers and seed corpus in a
// fixed order, returning the cumulative dispatch counters and the report
// signatures in encounter order. The configuration matches warmUp so the
// measured stream is the one the campaigns execute.
func elisionRun(fw *firmware.Firmware, seed int64, elide bool) (emu.Counters, []string, error) {
	inst, err := core.New(core.Config{
		Image:        fw.Image,
		Sanitizers:   sanitizersFor(fw),
		StopOnReport: true,
		Machine:      emu.Config{MaxHarts: 2, Seed: uint64(seed) + 1},
		KCSAN:        san.KCSANConfig{SampleInterval: 13, Delay: 600},
		Elide:        elide,
	})
	if err != nil {
		return emu.Counters{}, nil, err
	}
	if err := inst.Boot(200_000_000); err != nil {
		return emu.Counters{}, nil, err
	}
	inst.Snapshot()
	var sigs []string
	replay := func(input []byte) {
		inst.Restore()
		res := inst.Exec(input, 100_000_000)
		for _, r := range res.Reports {
			sigs = append(sigs, r.Signature())
		}
	}
	for _, b := range fw.Bugs {
		if b.NeedsKCSAN {
			continue // racing triggers depend on watchpoint timing, not layout
		}
		replay(b.Trigger)
	}
	for _, s := range fw.Seeds {
		replay(s)
	}
	return inst.Machine.Counters(), sigs, nil
}

// FormatElisionTable renders the per-firmware dispatch savings.
func FormatElisionTable(stats []ElisionStat) string {
	var b strings.Builder
	b.WriteString("Sanitizer dispatches elided by static safety proofs\n")
	fmt.Fprintf(&b, "%-24s %-9s %12s %12s %7s %8s\n",
		"Firmware", "mode", "dispatches", "elided", "frac", "reports")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-24s %-9s %12d %12d %6.1f%% %8d\n",
			s.Firmware, s.Mode, s.Dispatch, s.Elided, s.Frac()*100, s.Reports)
	}
	return b.String()
}
