package exps

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"embsan/internal/san"
)

// TestExplainSeededUAF replays the InfiniTime st7789_draw use-after-free
// trigger through the forensic pipeline and checks the reconstructed story
// against the known ground truth: the access reaches the driver through
// executor_loop → infinitime_dispatch → st7789_draw, the object was
// allocated and freed inside st7789_draw, and the timeline walks
// alloc → free → quarantine.
func TestExplainSeededUAF(t *testing.T) {
	fw := buildSubset(t, "InfiniTime")[0]
	res, err := ExplainReport(fw, ExplainOptions{BugFn: "st7789_draw", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.Bug != san.BugUAF {
		t.Fatalf("bug = %v, want use-after-free", r.Bug)
	}
	if len(r.Stack) < 3 {
		t.Fatalf("access backtrace has %d frames, want >= 3:\n%s", len(r.Stack), res.Text)
	}
	if len(r.AllocStack) == 0 || len(r.FreeStack) == 0 {
		t.Fatalf("missing alloc/free backtraces:\n%s", res.Text)
	}
	// The known call chain must appear, innermost first, in the rendered
	// access backtrace.
	for _, fn := range []string{"st7789_draw", "infinitime_dispatch", "executor_loop"} {
		if !strings.Contains(res.Text, fn) {
			t.Errorf("report text missing %q:\n%s", fn, res.Text)
		}
	}
	access := strings.Index(res.Text, "Access backtrace:")
	dispatch := strings.Index(res.Text[access:], "infinitime_dispatch")
	loop := strings.Index(res.Text[access:], "executor_loop")
	if dispatch < 0 || loop < 0 || dispatch > loop {
		t.Errorf("access backtrace not in innermost-first order (dispatch@%d loop@%d):\n%s",
			dispatch, loop, res.Text)
	}
	// Timeline: the chunk's life must include its allocation, its free and
	// the quarantine transition, in that order.
	var seq []string
	for _, te := range r.Timeline {
		seq = append(seq, te.Event)
	}
	joined := strings.Join(seq, " ")
	for _, want := range []string{"alloc", "free", "quarantine"} {
		if !strings.Contains(joined, want) {
			t.Errorf("timeline %v missing %q", seq, want)
		}
	}
	if ai, fi := strings.Index(joined, "alloc"), strings.Index(joined, "free"); ai > fi {
		t.Errorf("timeline out of order: %v", seq)
	}
	for _, section := range []string{"Access backtrace:", "Allocation backtrace:", "Free backtrace:", "Object timeline:"} {
		if !strings.Contains(res.Text, section) {
			t.Errorf("report text missing section %q:\n%s", section, res.Text)
		}
	}
	if !bytes.Contains(res.JSON, []byte(`"signature":"KASAN:use-after-free:st7789_draw"`)) {
		t.Errorf("explain.json missing signature: %s", res.JSON)
	}
}

// TestExplainDeterministicAcrossWorkers is the end-to-end determinism
// contract of `embsan explain`: hunt the crash with campaigns at workers=1,
// 4 and GOMAXPROCS, explain the minimized crasher each time, and require
// the report text and explain.json to be byte-identical — plus a repeat run
// at one configuration to catch any residual state in the pooled machines.
func TestExplainDeterministicAcrossWorkers(t *testing.T) {
	counts := []int{1, 4, runtime.GOMAXPROCS(0), 1} // trailing 1 = repeat run
	var texts []string
	var jsons [][]byte
	for _, workers := range counts {
		fws := buildSubset(t, "InfiniTime")
		run, err := RunCampaignSet(fws, CampaignOptions{Execs: 350, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var crashSig string
		var crashInput []byte
		for _, cr := range run.Campaigns[0].Raw.Crashes {
			if cr.Report != nil {
				crashSig, crashInput = cr.Signature, cr.Minimized
				break
			}
		}
		if crashInput == nil {
			t.Fatalf("workers=%d: campaign found no crash", workers)
		}
		res, err := ExplainReport(fws[0], ExplainOptions{
			Signature: crashSig, Input: crashInput, Seed: 3,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		texts = append(texts, res.Text)
		jsons = append(jsons, res.JSON)
	}
	for i := 1; i < len(counts); i++ {
		if texts[i] != texts[0] {
			t.Errorf("workers=%d report text diverged:\n--- workers=%d ---\n%s\n--- workers=%d ---\n%s",
				counts[i], counts[0], texts[0], counts[i], texts[i])
		}
		if !bytes.Equal(jsons[i], jsons[0]) {
			t.Errorf("workers=%d explain.json diverged:\n%s\nvs\n%s", counts[i], jsons[0], jsons[i])
		}
	}
}

// TestCampaignForensicsOption: forensic arming changes only the report
// extras — campaign outcomes are fingerprint-identical with it on or off,
// and crash reports gain backtraces.
func TestCampaignForensicsOption(t *testing.T) {
	base, err := RunCampaignSet(buildSubset(t, "InfiniTime"),
		CampaignOptions{Execs: 350, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for1, err := RunCampaignSet(buildSubset(t, "InfiniTime"),
		CampaignOptions{Execs: 350, Seed: 3, Workers: 1, Forensics: true})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := campaignFingerprint(base.Campaigns), campaignFingerprint(for1.Campaigns); a != b {
		t.Errorf("forensic arming changed campaign outcomes:\n--- off ---\n%s\n--- on ---\n%s", a, b)
	}
	foundStack := false
	for _, cr := range for1.Campaigns[0].Raw.Crashes {
		if cr.Report != nil && len(cr.Report.Stack) > 0 {
			foundStack = true
		}
	}
	if !foundStack {
		t.Error("no crash report carries an access backtrace under forensics")
	}
}
