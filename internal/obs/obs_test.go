package obs

import (
	"bytes"
	"strings"
	"testing"
)

func mkEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{
			ICnt: uint64(100 + i),
			PC:   uint32(0x1000 + 4*i),
			Addr: uint32(0x8000 + i),
			Arg:  uint32(i),
			Kind: Kind(1 + i%int(evMax)),
			Hart: uint8(i % 2),
		}
	}
	return out
}

// TestRingBasics: events come back oldest-first and Reset empties the ring
// without reallocating.
func TestRingBasics(t *testing.T) {
	r := NewRing(8)
	evs := mkEvents(5)
	for _, e := range evs {
		r.Emit(e)
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	got := r.Events()
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], evs[i])
		}
	}
	r.Reset()
	if r.Len() != 0 || len(r.Events()) != 0 {
		t.Fatalf("reset did not empty the ring")
	}
}

// TestRingWraparound: overflowing the ring drops the oldest events, keeps
// the newest in order, and counts the drops.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	evs := mkEvents(11)
	for _, e := range evs {
		r.Emit(e)
	}
	if r.Len() != 4 {
		t.Fatalf("len=%d, want 4", r.Len())
	}
	if r.Dropped() != 7 {
		t.Fatalf("dropped=%d, want 7", r.Dropped())
	}
	got := r.Events()
	for i := 0; i < 4; i++ {
		if got[i] != evs[7+i] {
			t.Fatalf("event %d = %+v, want %+v (oldest dropped first)", i, got[i], evs[7+i])
		}
	}
}

// TestEmitZeroAlloc: an emit into a live ring allocates nothing — the
// guarantee the zero-alloc-off-by-default tracing budget rests on (the off
// path is a single nil check before this call).
func TestEmitZeroAlloc(t *testing.T) {
	r := NewRing(16)
	e := Event{ICnt: 1, PC: 2, Addr: 3, Arg: 4, Kind: EvTBEnter, Hart: 0}
	if allocs := testing.AllocsPerRun(1000, func() { r.Emit(e) }); allocs != 0 {
		t.Fatalf("Ring.Emit allocates %.1f times per call, want 0", allocs)
	}
	c := &Counter{}
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("Counter.Inc allocates %.1f times per call, want 0", allocs)
	}
}

// TestRegistrySnapshots: text and JSON snapshots are sorted, stable and
// carry every instrument class.
func TestRegistrySnapshots(t *testing.T) {
	r := NewRegistry()
	r.Counter("emu.tb.hits").Add(3)
	r.Counter("emu.tb.misses").Inc()
	r.Gauge("fuzz.corpus.size").Set(17)
	h := r.Histogram("fuzz.exec.insts", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	wantText := "counter emu.tb.hits 3\n" +
		"counter emu.tb.misses 1\n" +
		"gauge fuzz.corpus.size 17\n" +
		"hist fuzz.exec.insts count=3 sum=5055 le10=1 le100=1 inf=1\n"
	if got := r.Text(); got != wantText {
		t.Fatalf("text snapshot:\n%s\nwant:\n%s", got, wantText)
	}
	wantJSON := `{"counters":{"emu.tb.hits":3,"emu.tb.misses":1},` +
		`"gauges":{"fuzz.corpus.size":17},` +
		`"histograms":{"fuzz.exec.insts":{"count":3,"sum":5055,"bounds":[10,100],"counts":[1,1,1]}}}` + "\n"
	if got := string(r.JSON()); got != wantJSON {
		t.Fatalf("json snapshot:\n%s\nwant:\n%s", got, wantJSON)
	}
	// Registration is idempotent: same instrument, not a fresh one.
	if r.Counter("emu.tb.hits").Value() != 3 {
		t.Fatal("re-registration lost the counter value")
	}
}

// TestCountsSub: a delta between two snapshots counts every counter by
// name. A counter registered after the base snapshot counts from zero, an
// unchanged one reads 0 but is present, and a name never registered is
// absent and reads 0.
func TestCountsSub(t *testing.T) {
	r := NewRegistry()
	r.Counter("emu.tb.hits").Add(5)
	r.Counter("emu.tb.misses").Add(2)
	base := r.Counts()
	r.Counter("emu.tb.hits").Add(3)
	r.Counter("emu.chain.hits").Add(7) // registered after the base
	d := r.Counts().Sub(base)
	for _, tc := range []struct {
		name    string
		want    uint64
		present bool
	}{
		{"emu.tb.hits", 3, true},
		{"emu.chain.hits", 7, true},
		{"emu.tb.misses", 0, true},
		{"emu.never.registered", 0, false},
	} {
		got, ok := d[tc.name]
		if got != tc.want || ok != tc.present {
			t.Errorf("%s: delta %d (present %v), want %d (present %v)", tc.name, got, ok, tc.want, tc.present)
		}
	}
	if len(d) != 3 {
		t.Errorf("delta has %d names, want 3: %v", len(d), d)
	}
	if base["emu.tb.hits"] != 5 {
		t.Errorf("Sub changed the base snapshot: %v", base)
	}
}

// TestRegistryMerge: counters and histogram buckets sum; gauges total.
func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x").Add(2)
	b.Counter("x").Add(5)
	b.Counter("y").Inc()
	a.Gauge("g").Set(3)
	b.Gauge("g").Set(4)
	a.Histogram("h", []uint64{8}).Observe(4)
	b.Histogram("h", []uint64{8}).Observe(400)

	m := Merge(a, b, nil)
	if got := m.Counter("x").Value(); got != 7 {
		t.Fatalf("x=%d", got)
	}
	if got := m.Counter("y").Value(); got != 1 {
		t.Fatalf("y=%d", got)
	}
	if got := m.Gauge("g").Value(); got != 7 {
		t.Fatalf("g=%d", got)
	}
	h := m.Histogram("h", nil)
	if h.Count() != 2 || h.Sum() != 404 {
		t.Fatalf("h count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestProfileAttribution: per-PC cost folds onto the containing functions,
// out-of-range PCs land in [unknown], and the folded/text outputs are
// deterministic.
func TestProfileAttribution(t *testing.T) {
	funcs := []FuncRange{
		{Entry: 0x1000, End: 0x1100, Name: "alpha"},
		{Entry: 0x1100, End: 0x1200, Name: "beta"},
	}
	p := NewProfile()
	p.AddInsts(0x1000, 40)
	p.AddInsts(0x1080, 10)
	p.AddInsts(0x1100, 20)
	p.AddInsts(0x9000, 5) // unattributed
	p.AddDispatch(0x1104)
	p.AddDispatch(0x1104)
	p.AddDispatch(0x1010)

	if p.TotalInsts() != 75 {
		t.Fatalf("total insts = %d", p.TotalInsts())
	}
	wantFolded := "[unknown] 5\nalpha 50\nbeta 20\n"
	if got := p.Folded(funcs); got != wantFolded {
		t.Fatalf("folded:\n%s\nwant:\n%s", got, wantFolded)
	}
	sites := p.DispatchSites(funcs)
	if len(sites) != 2 || sites[0].PC != 0x1104 || sites[0].Count != 2 || sites[0].Fn != "beta+0x4" {
		t.Fatalf("sites = %+v", sites)
	}
	tbl := FormatDispatchTable(sites, 10)
	if !strings.Contains(tbl, "beta+0x4") || !strings.Contains(tbl, "total dispatches: 3 across 2 sites") {
		t.Fatalf("dispatch table:\n%s", tbl)
	}
}

// TestChromeTraceExport: the exporter passes its own validator, timestamps
// survive virtual-clock rewinds (snapshot restores), and the bytes are a
// pure function of the input.
func TestChromeTraceExport(t *testing.T) {
	events := []Event{
		{ICnt: 100, PC: 0x1000, Kind: EvTBEnter, Hart: 0},
		{ICnt: 110, PC: 0x1000, Kind: EvTBExit, Hart: 0},
		{ICnt: 112, PC: 0x1010, Addr: 0x8000, Arg: PackAccess(4, true, false), Kind: EvSanck, Hart: 1},
		{ICnt: 50, Kind: EvRestore, Hart: 0}, // clock rewind
		{ICnt: 55, PC: 0x1000, Kind: EvTBEnter, Hart: 0},
		{ICnt: 70, PC: 0x1000, Kind: EvTBExit, Hart: 0},
	}
	jobs := []JobTrace{{ID: 0, Events: events, Dropped: 3}}
	out := ChromeTrace(jobs)
	if err := ValidateChrome(out); err != nil {
		t.Fatalf("export does not validate: %v\n%s", err, out)
	}
	if !bytes.Equal(out, ChromeTrace(jobs)) {
		t.Fatal("export is not deterministic")
	}
	// A genuinely broken document must fail the validator.
	if err := ValidateChrome([]byte(`{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":0,"tid":0}]}`)); err == nil {
		t.Fatal("bad phase passed validation")
	}
	if err := ValidateChrome([]byte(`{}`)); err == nil {
		t.Fatal("missing traceEvents passed validation")
	}
	if err := ValidateChrome([]byte(`{"traceEvents":[` +
		`{"name":"a","ph":"i","ts":5,"pid":0,"tid":0,"s":"t"},` +
		`{"name":"b","ph":"i","ts":2,"pid":0,"tid":0,"s":"t"}]}`)); err == nil {
		t.Fatal("backwards time passed validation")
	}
}

// TestPhases: the Any gate that keeps campaign-stat output byte-compatible
// when metrics are off.
func TestPhases(t *testing.T) {
	if (Phases{}).Any() {
		t.Fatal("zero phases report work")
	}
	if !(Phases{Sanitize: 1}).Any() {
		t.Fatal("non-zero phases report none")
	}
}
