package exps

import (
	"fmt"

	"embsan/internal/guest/firmware"
	"embsan/internal/obs/forensics"
	"embsan/internal/sched"
)

// ExplainOptions selects the report to explain and how to find an input
// reproducing it.
type ExplainOptions struct {
	// Signature is the report signature (Report.Signature) to explain.
	// Empty means the first report the chosen input produces.
	Signature string
	// BugFn names a seeded bug (firmware.Bug.Fn) whose trigger is replayed
	// as the input. Empty means derive the input another way.
	BugFn string
	// Input, when non-nil, is replayed directly (a distilled crasher from a
	// previous campaign artifact).
	Input []byte
	// Execs bounds the input-hunting campaign when neither BugFn nor Input
	// is given (default 30000).
	Execs int
	// Seed is the base seed — the same value a campaign on this firmware
	// used, so explain replays the exact deployment.
	Seed int64
	// Window is the forensic half-window in instructions (0 = default).
	Window uint64
}

// ExplainResult is one explained report with its rendered artifacts.
type ExplainResult struct {
	*forensics.Explanation
	Firmware *firmware.Firmware
	Input    []byte // the input that was replayed
	JSON     []byte // canonical explain.json bytes
}

// ExplainReport reconstructs the forensic story of one report on fw: it
// warms the identical deployment a campaign would use, resolves an input
// that reproduces the report (seeded trigger, explicit crasher, or a
// bounded hunting campaign), and runs the deterministic two-pass forensic
// replay. The result — text and JSON — is a pure function of (firmware,
// options): campaigns find the crasher bit-identically for every worker
// count, and the replay itself is serial, so `embsan explain` output is
// byte-identical no matter how the campaign that surfaced the bug was
// scheduled.
func ExplainReport(fw *firmware.Firmware, opts ExplainOptions) (*ExplainResult, error) {
	w, err := warmUp(fw, opts.Seed, false, false)
	if err != nil {
		return nil, err
	}
	input := opts.Input
	sig := opts.Signature
	switch {
	case input != nil:
		// Explicit crasher; sig (possibly empty) selects among its reports.
	case opts.BugFn != "":
		b := seededBug(fw, opts.BugFn)
		if b == nil {
			return nil, fmt.Errorf("exps: %s has no seeded bug %q", fw.Name, opts.BugFn)
		}
		input = b.Trigger
		if sig == "" {
			// The warm-up labelled each trigger's signature; reuse it so a
			// multi-report trigger still explains the seeded bug.
			for s, sb := range w.sigToBug {
				if sb == b {
					sig = s
					break
				}
			}
		}
	default:
		execs := opts.Execs
		if execs == 0 {
			execs = 30000
		}
		c, err := w.runOne(fw, sched.Split(opts.Seed, 0), execs)
		if err != nil {
			return nil, err
		}
		for _, crash := range c.Raw.Crashes {
			if crash.Report == nil {
				continue
			}
			if sig != "" && crash.Signature != sig {
				continue
			}
			sig = crash.Signature
			input = crash.Minimized
			if input == nil {
				input = crash.Input
			}
			break
		}
		if input == nil {
			return nil, fmt.Errorf("exps: %s: campaign found no crash matching %q", fw.Name, opts.Signature)
		}
	}

	// Pin the machine seed to the warm-up value so the replay's virtual
	// clock is independent of whether a hunting campaign ran in between.
	w.inst.Machine.Reseed(uint64(opts.Seed) + 1)
	exp, err := forensics.Explain(w.inst, forensics.Options{
		Signature: sig,
		Input:     input,
		Window:    opts.Window,
	})
	if err != nil {
		return nil, err
	}
	return &ExplainResult{
		Explanation: exp,
		Firmware:    fw,
		Input:       input,
		JSON:        exp.JSON(w.inst.Image().Symbolize),
	}, nil
}
