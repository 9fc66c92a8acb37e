package main

import (
	"fmt"

	"embsan/internal/guest/firmware"
	"embsan/internal/kasm"
	"embsan/internal/san"
	"embsan/internal/static"
	"embsan/internal/static/races"
)

// racesAnalyze runs the lockset/shared-state analysis on one image.
func racesAnalyze(img *kasm.Image) *races.Result {
	an, err := static.Analyze(img)
	if err != nil {
		fatal(err)
	}
	return races.Analyze(an, races.Options{})
}

// raceExpected reports whether the firmware carries a seeded data race, in
// which case the static triage is REQUIRED to emit candidate pairs.
func raceExpected(fw *firmware.Firmware) bool {
	for _, b := range fw.Bugs {
		if b.Type == san.BugRace {
			return true
		}
	}
	return false
}

// racesImage runs the race triage on one image and prints the verdict with
// symbol xrefs; returns the diagnostic count. The verdict is clean-or-
// expected: firmware with a seeded race must yield candidate pairs, firmware
// without one must yield none.
func racesImage(img *kasm.Image, expectRace bool) int {
	if img.Stripped || len(img.Symbols) == 0 {
		fmt.Printf("%s: note: skipped %s: no symbol anchors\n", img.Name, static.RuleRaces)
		return 0
	}
	r := racesAnalyze(img)
	for _, p := range r.Pairs {
		fmt.Printf("%s: %s: candidate pair %s\n", img.Name, static.RuleRaces, r.DescribePair(p))
	}
	s := r.Stats()
	switch {
	case expectRace && s.Pairs == 0:
		fmt.Printf("%s: %s: firmware seeds a data race but the triage emitted no candidate pairs\n",
			img.Name, static.RuleRaces)
		return 1
	case !expectRace && s.Pairs > 0:
		fmt.Printf("%s: %s: %d unexpected candidate pairs on race-free firmware\n",
			img.Name, static.RuleRaces, s.Pairs)
		return s.Pairs
	}
	verdict := "races clean"
	if expectRace {
		verdict = fmt.Sprintf("races expected (%d seeded candidate pairs)", s.Pairs)
	}
	fmt.Printf("%s: %s (%d objects: %d protected, %d hart-local, %d racy; %d accesses, %d unresolved)\n",
		img.Name, verdict, s.Objects, s.Protected, s.HartLocal, s.Racy, s.Accesses, s.Unresolved)
	return 0
}

// racesAll audits every registry firmware (stock build, so the seeded-bug
// list is attached) plus the race twin as the positive control.
func racesAll() {
	bad := 0
	for _, name := range firmware.Names {
		fw, err := firmware.Build(name)
		if err != nil {
			fatal(err)
		}
		bad += racesImage(fw.Image, raceExpected(fw))
	}
	twin, err := firmware.BuildRaceTwin()
	if err != nil {
		fatal(err)
	}
	bad += racesImage(twin.Image, true)
	exitCode(bad)
}
