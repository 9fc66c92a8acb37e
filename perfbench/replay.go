package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"embsan/internal/core"
	"embsan/internal/exps"
)

// ref is the expected outcome of one replayed input, kept in a form the
// timed loop can compare without formatting strings for clean executions.
type ref struct {
	done bool
	code uint32
	sig  string
}

func refOf(r core.ExecResult) ref {
	if r.Done && len(r.Reports) == 0 && r.Fault == nil {
		return ref{done: true, code: r.DoneCode}
	}
	return ref{sig: outcome(r)}
}

func (want *ref) matches(r core.ExecResult) bool {
	if r.Done && len(r.Reports) == 0 && r.Fault == nil {
		return want.done && want.code == r.DoneCode
	}
	return !want.done && want.sig == outcome(r)
}

// replayTarget is one firmware's deployment and replay corpus.
type replayTarget struct {
	d      *deployment
	inputs [][]byte
	refs   []ref // outcomes of the settle pass
}

// replayCorpora runs one fixed-seed campaign per firmware of w and returns
// each campaign's saved corpus.
func replayCorpora(w *workload, base int64) ([][][]byte, error) {
	fws, err := buildFirmware(w.fws)
	if err != nil {
		return nil, err
	}
	run, err := exps.RunCampaignSet(fws, exps.CampaignOptions{Execs: w.execs, Seed: base, Workers: 1})
	if err != nil {
		return nil, err
	}
	out := make([][][]byte, len(fws))
	for i, c := range run.Campaigns {
		out[i] = c.Corpus
	}
	return out, nil
}

// replayTargets pairs each deployment with its replay corpus.
func replayTargets(deps []*deployment, corpora [][][]byte) []*replayTarget {
	targets := make([]*replayTarget, len(deps))
	for i, d := range deps {
		targets[i] = &replayTarget{d: d, inputs: replayInputs(d.fw, corpora[i])}
	}
	return targets
}

// settle replays every input once, untimed: it fills the translation cache,
// records each input's outcome as the reference later passes must
// reproduce, and returns the pass's fingerprint line and results.
func (t *replayTarget) settle() (string, []core.ExecResult, error) {
	inst := t.d.inst
	before, err := counts(inst.Machine.Metrics())
	if err != nil {
		return "", nil, err
	}
	var insts float64
	outs := make([]string, len(t.inputs))
	res := make([]core.ExecResult, len(t.inputs))
	t.refs = make([]ref, len(t.inputs))
	for i, in := range t.inputs {
		r := replayOne(inst, in)
		insts += float64(r.Insts)
		outs[i] = outcome(r)
		t.refs[i] = refOf(r)
		res[i] = r
	}
	after, err := counts(inst.Machine.Metrics())
	if err != nil {
		return "", nil, err
	}
	d, err := delta(before, after, "emu.snapshot.restore_pages", "emu.sanck.traps", "emu.mem.probes")
	if err != nil {
		return "", nil, err
	}
	line := replayLine(t.d.fw.Name, len(t.inputs), insts, d["emu.snapshot.restore_pages"],
		d["emu.sanck.traps"]+d["emu.mem.probes"], outs)
	return line, res, nil
}

// foundBugs attributes the settle pass's reports to seeded bugs. The inputs
// are replayInputs', so the seeded triggers first label their own
// signatures, as trigger labelling does for campaigns.
func (t *replayTarget) foundBugs(res []core.ExecResult) []string {
	fw := t.d.fw
	i := len(fw.Seeds)
	for k := range fw.Bugs {
		if b := &fw.Bugs[k]; !b.NeedsKCSAN {
			if rs := res[i].Reports; len(rs) > 0 {
				t.d.sigToBug[rs[0].Signature()] = b
			}
			i++
		}
	}
	seen := map[string]bool{}
	var bugs []string
	for _, r := range res {
		if len(r.Reports) == 0 {
			continue
		}
		if fn := attribute(fw, t.d.sigToBug, r.Reports[0]); fn != "" && !seen[fn] {
			seen[fn] = true
			bugs = append(bugs, fw.Name+"/"+fn)
		}
	}
	sort.Strings(bugs)
	return bugs
}

// pass replays every input once and counts each outcome that differs from
// the settle pass as a failed operation.
func (t *replayTarget) pass(tl *tally) int {
	for i, in := range t.inputs {
		r := replayOne(t.d.inst, in)
		if !t.refs[i].matches(r) {
			tl.fail("%s: input %d: outcome %s, want %+v", t.d.fw.Name, i, outcome(r), t.refs[i])
		}
	}
	tl.attempted += len(t.inputs)
	return len(t.inputs)
}

// replayWindow runs one timed window of w.passes passes over every target,
// after a full collection.
func replayWindow(w *workload, targets []*replayTarget, tl *tally) window {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	execs := 0
	for p := 0; p < w.passes; p++ {
		for _, t := range targets {
			execs += t.pass(tl)
		}
	}
	win := window{execs: float64(execs), elapsed: time.Since(start)}
	runtime.ReadMemStats(&m1)
	win.allocBytes, win.gcCycles, win.gcPause = memDelta(&m0, &m1)
	return win
}

// settleAll runs the settle pass on every target and returns the
// fingerprint lines and the distinct seeded bugs reached.
func settleAll(targets []*replayTarget) ([]string, []string, error) {
	var lines, bugs []string
	for _, t := range targets {
		line, res, err := t.settle()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", t.d.fw.Name, err)
		}
		lines = append(lines, line)
		bugs = append(bugs, t.foundBugs(res)...)
	}
	return lines, bugs, nil
}

// replayFingerprint computes the fingerprint of one replay input set.
func replayFingerprint(w *workload, set int) ([]string, error) {
	base := baseSeed(set)
	corpora, err := replayCorpora(w, base)
	if err != nil {
		return nil, err
	}
	_, deps, err := setUp(w, base)
	if err != nil {
		return nil, err
	}
	lines, _, err := settleAll(replayTargets(deps, corpora))
	return lines, err
}
