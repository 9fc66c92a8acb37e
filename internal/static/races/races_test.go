package races_test

import (
	"reflect"
	"testing"

	"embsan/internal/guest/elinux"
	"embsan/internal/guest/freertos"
	"embsan/internal/isa"
	"embsan/internal/kasm"
	"embsan/internal/static"
	"embsan/internal/static/races"
)

func analyzeImage(t *testing.T, img *kasm.Image) *races.Result {
	t.Helper()
	an, err := static.Analyze(img)
	if err != nil {
		t.Fatalf("static.Analyze: %v", err)
	}
	return races.Analyze(an, races.Options{})
}

func objByName(t *testing.T, r *races.Result, name string) *races.Object {
	t.Helper()
	for _, o := range r.Objects {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("object %q not in result", name)
	return nil
}

// The stock freertos guest is clean: its queue is spinlock-protected, its
// display state is hart-0-only, and its sensor reading is published
// atomically. The analysis must prove all three and emit no pairs.
func TestFreertosClassification(t *testing.T) {
	fw, err := freertos.Build("races-freertos", isa.ArchARM32E, kasm.SanNone)
	if err != nil {
		t.Fatal(err)
	}
	r := analyzeImage(t, fw.Image)

	if c := objByName(t, r, "xSensorQueue").Class; c != races.ClassProtected {
		t.Errorf("xSensorQueue: got %v, want protected", c)
	}
	if c := objByName(t, r, "frame_stat").Class; c != races.ClassHartLocal {
		t.Errorf("frame_stat: got %v, want hart-local", c)
	}
	if c := objByName(t, r, "hr_reading").Class; c != races.ClassProtected {
		t.Errorf("hr_reading (atomic-only): got %v, want protected", c)
	}
	if len(r.Pairs) != 0 {
		for _, p := range r.Pairs {
			t.Logf("unexpected pair: %s", r.DescribePair(p))
		}
		t.Errorf("clean guest produced %d candidate pairs", len(r.Pairs))
	}
	if r.UnknownSpawn {
		t.Error("sensor task spawn did not resolve")
	}
}

// The racy freertos twin shares an unlocked step counter between the
// sensor task (hart 1) and the display service (hart 0): the analysis must
// classify it racy and emit the write-write pair, while everything the
// stock guest proves safe stays proven.
func TestFreertosRacyTwinFlagged(t *testing.T) {
	fw, err := freertos.BuildRacy("races-freertos-racy", isa.ArchARM32E, kasm.SanNone)
	if err != nil {
		t.Fatal(err)
	}
	r := analyzeImage(t, fw.Image)

	if c := objByName(t, r, "step_count").Class; c != races.ClassRacy {
		t.Fatalf("step_count: got %v, want racy", c)
	}
	found := false
	for _, p := range r.Pairs {
		if r.Objects[p.Object].Name == "step_count" {
			found = true
			t.Logf("pair: %s", r.DescribePair(p))
		}
	}
	if !found {
		t.Error("no candidate pair emitted for step_count")
	}
	if c := objByName(t, r, "xSensorQueue").Class; c != races.ClassProtected {
		t.Errorf("xSensorQueue in racy twin: got %v, want protected", c)
	}
}

// The elinux guest with a KindRace bug shares racy_stat between the
// syscall path (hart 0) and a kthread (hart 1) with no locking: the
// analysis must classify it racy and emit a cross-hart pair.
func TestElinuxSeededRaceFlagged(t *testing.T) {
	fw, err := elinux.Build(elinux.Board{
		Name: "races-elinux", Arch: isa.ArchARM32E, Mode: kasm.SanNone,
		BugFns: []string{"btrfs_sync_log"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := analyzeImage(t, fw.Image)

	if c := objByName(t, r, "racy_stat").Class; c != races.ClassRacy {
		t.Fatalf("racy_stat: got %v, want racy", c)
	}
	crossHart := false
	for _, p := range r.Pairs {
		if r.Objects[p.Object].Name == "racy_stat" {
			crossHart = true
		}
	}
	if !crossHart {
		t.Error("no candidate pair emitted for racy_stat")
	}
}

// Guidance consistency: every access of a proven always-protected or
// hart-local object weighs 0, every access of a racy object gets the boost,
// and unresolved accesses stay off the map.
func TestSitePrioritiesDisjoint(t *testing.T) {
	fw, err := elinux.Build(elinux.Board{
		Name: "races-prio", Arch: isa.ArchARM32E, Mode: kasm.SanNone,
		BugFns: []string{"btrfs_sync_log"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := analyzeImage(t, fw.Image)
	prio := r.SitePriorities(0)
	boosted, zeroed := 0, 0
	for _, o := range r.Objects {
		var want uint8
		switch o.Class {
		case races.ClassRacy:
			want = races.DefaultBoost
		case races.ClassProtected, races.ClassHartLocal:
			want = 0
		default:
			continue
		}
		for _, ai := range o.Accesses {
			pc := r.Accesses[ai].PC
			if w, ok := prio[pc]; !ok || w != want {
				t.Errorf("%s access at %#x (%v) weighs %d (present %v), want %d", o.Name, pc, o.Class, w, ok, want)
			}
			if want == 0 {
				zeroed++
			} else {
				boosted++
			}
		}
	}
	if boosted == 0 {
		t.Error("no boosted sites despite a seeded race")
	}
	if zeroed == 0 {
		t.Error("no weight-0 sites: no access proven protected or hart-local")
	}
}

// TestAnalysisDeterministic: two analyses of one image agree on every
// object class, candidate pair and arming weight.
func TestAnalysisDeterministic(t *testing.T) {
	fw, err := freertos.Build("races-audit", isa.ArchARM32E, kasm.SanNone)
	if err != nil {
		t.Fatal(err)
	}
	an, err := static.Analyze(fw.Image)
	if err != nil {
		t.Fatal(err)
	}
	r := races.Analyze(an, races.Options{})
	again := races.Analyze(an, races.Options{})
	if len(r.Objects) == 0 {
		t.Fatal("no shared objects found")
	}
	if !reflect.DeepEqual(r.Objects, again.Objects) || !reflect.DeepEqual(r.Pairs, again.Pairs) {
		t.Error("two analyses of one image disagree on objects or candidate pairs")
	}
	if !reflect.DeepEqual(r.SitePriorities(0), again.SitePriorities(0)) {
		t.Error("two analyses of one image disagree on arming weights")
	}
}

// Termination on an irreducible CFG: two mutually-branching loop headers
// entered from distinct paths. The fixpoint must converge (or widen) and
// return, not spin.
func TestLocksetFixpointIrreducibleCFG(t *testing.T) {
	b := kasm.NewBuilder(kasm.Target{Arch: isa.ArchARM32E, Sanitize: kasm.SanNone})
	b.Global("g_state", 4)
	b.Func("_start")
	b.Li(isa.RegSP, 0x8000)
	b.Li(11, 3) // t0 = counter
	b.BNEZ(11, "_start.h2")
	b.Label("_start.h1")
	b.La(12, "g_state")
	b.LW(4, 12, 0)
	b.ADDI(11, 11, -1)
	b.BNEZ(11, "_start.h2")
	b.J("_start.done")
	b.Label("_start.h2")
	b.La(12, "g_state")
	b.SW(11, 12, 0)
	b.ADDI(11, 11, -1)
	b.BNEZ(11, "_start.h1")
	b.Label("_start.done")
	b.HALT()
	img, err := b.Link("irreducible-cfg")
	if err != nil {
		t.Fatal(err)
	}
	r := analyzeImage(t, img)
	if o := objByName(t, r, "g_state"); o.Class != races.ClassHartLocal {
		t.Errorf("g_state: got %v, want hart-local (single-hart image)", o.Class)
	}
}
