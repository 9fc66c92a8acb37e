package timeline

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"embsan/internal/obs"
)

// mkSamples builds a synthetic timeline: cover grows on the first grow
// samples, then plateaus.
func mkSamples(n, grow int, interval uint64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		c := grow
		if i < grow {
			c = i + 1
		}
		out[i] = Sample{
			VClock: uint64(i+1) * interval, Execs: uint64(i+1) * 10,
			CoverBlocks: uint64(c), CorpusSize: uint64(c), Found: uint64(i / 7),
			Translate: uint64(i) * 3, Execute: uint64(i+1) * interval,
			Sanitize: uint64(i) * 2, Snapshot: uint64(i),
			ChainHits: uint64(i) * 5, Dispatches: uint64(i) + 1,
			KCSANEvals: uint64(i) * 9, KCSANArmed: uint64(i),
		}
	}
	return out
}

// feed replays a sample slice through a sampler via Advance+Flush the way
// the fuzzer would, using each sample's own VClock as the clock.
func feed(s *Sampler, samples []Sample) {
	for _, sm := range samples {
		cur := sm
		s.Advance(cur.VClock, func(dst *Sample) { *dst = cur })
	}
	if n := len(samples); n > 0 {
		last := samples[n-1]
		s.Flush(last.VClock, func(dst *Sample) { *dst = last })
	}
}

func TestSamplerAdvance(t *testing.T) {
	s := NewSampler(100, 0)
	fill := func(dst *Sample) { dst.Execs = 42 }

	s.Advance(99, fill) // below threshold: no sample
	if got := s.Samples(); len(got) != 0 {
		t.Fatalf("sample below threshold: %+v", got)
	}
	s.Advance(100, fill)
	s.Advance(150, fill) // still inside the next period
	s.Advance(250, fill) // crosses 200
	got := s.Samples()
	if len(got) != 2 || got[0].VClock != 100 || got[1].VClock != 250 {
		t.Fatalf("unexpected samples: %+v", got)
	}
	if got[0].Execs != 42 {
		t.Fatalf("fill not applied: %+v", got[0])
	}

	// Flush records the terminal state once, and dedupes an exact repeat.
	s.Flush(260, fill)
	s.Flush(260, fill)
	if got := s.Samples(); len(got) != 3 || got[2].VClock != 260 {
		t.Fatalf("flush: %+v", got)
	}
}

func TestSamplerFlushShortCampaign(t *testing.T) {
	// A campaign shorter than one interval still produces a timeline.
	s := NewSampler(1<<40, 0)
	s.Advance(5000, func(dst *Sample) { dst.Execs = 1 })
	s.Flush(5000, func(dst *Sample) { dst.Execs = 1 })
	if got := s.Samples(); len(got) != 1 || got[0].VClock != 5000 {
		t.Fatalf("short campaign timeline: %+v", got)
	}
}

func TestSamplerReset(t *testing.T) {
	s := NewSampler(10, 8)
	feed(s, mkSamples(20, 20, 10))
	if len(s.Samples()) == 0 || len(s.Marks()) == 0 {
		t.Fatal("want samples and marks before reset")
	}
	if s.Interval() == s.BaseInterval() {
		t.Fatal("20 samples into cap 8 should have decimated")
	}
	s.Reset(nil, DetectOptions{})
	if len(s.Samples()) != 0 || len(s.Marks()) != 0 {
		t.Fatal("reset must clear samples and marks")
	}
	if s.Interval() != s.BaseInterval() {
		t.Fatalf("reset must rewind decimation: interval %d base %d", s.Interval(), s.BaseInterval())
	}
}

func TestAdvanceZeroAlloc(t *testing.T) {
	s := NewSampler(100, 1024)
	fill := func(dst *Sample) { dst.Execs++ }
	// Warm one sample so the detector baseline is set.
	s.Advance(100, fill)

	if allocs := testing.AllocsPerRun(1000, func() { s.Advance(1, fill) }); allocs != 0 {
		t.Fatalf("below-threshold Advance allocates %v per run", allocs)
	}
	clock := uint64(100)
	if allocs := testing.AllocsPerRun(500, func() {
		clock += 100
		s.Advance(clock, fill)
	}); allocs != 0 {
		t.Fatalf("sampling Advance allocates %v per run", allocs)
	}
}

func TestDecimation(t *testing.T) {
	s := NewSampler(10, 8)
	full := mkSamples(64, 64, 10)
	feed(s, full)
	got := s.Samples()
	if len(got) > 8 {
		t.Fatalf("decimation failed to bound the buffer: %d samples", len(got))
	}
	if s.Interval() <= s.BaseInterval() {
		t.Fatalf("interval did not double: %d", s.Interval())
	}
	// Clocks stay strictly increasing and the terminal sample survives.
	for i := 1; i < len(got); i++ {
		if got[i].VClock <= got[i-1].VClock {
			t.Fatalf("non-monotone decimated clocks: %+v", got)
		}
	}
	if got[len(got)-1].VClock != full[len(full)-1].VClock {
		t.Fatalf("terminal sample lost: last=%d want %d", got[len(got)-1].VClock, full[len(full)-1].VClock)
	}
	// Marks survive decimation even when the sample point they anchor to
	// has been thinned away: plateau early, then run long enough for the
	// buffer to decimate several times.
	s2 := NewSampler(10, 8)
	s2.Reset(nil, DetectOptions{StallSamples: 2})
	feed(s2, mkSamples(64, 2, 10))
	stall, ok := FirstStall(s2.Marks())
	if !ok {
		t.Fatal("stall mark lost to decimation")
	}
	if last := s2.Samples()[len(s2.Samples())-1].VClock; stall >= last {
		t.Fatalf("stall %d should predate the terminal sample %d", stall, last)
	}
}

func TestDetectMatchesSampler(t *testing.T) {
	// Without decimation, the sampler's incremental marks are exactly
	// Detect over its recorded samples.
	for _, stall := range []int{0, 3, 8} {
		s := NewSampler(10, 4096)
		s.Reset(nil, DetectOptions{StallSamples: stall})
		samples := mkSamples(40, 6, 10)
		feed(s, samples)
		got := s.Marks()
		want := Detect(s.Samples(), DetectOptions{StallSamples: stall})
		if len(got) != len(want) {
			t.Fatalf("stall=%d: %d marks vs Detect's %d", stall, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("stall=%d mark %d: %+v vs %+v", stall, i, got[i], want[i])
			}
		}
	}
}

func TestDetectStallAndRearm(t *testing.T) {
	interval := uint64(10)
	var samples []Sample
	add := func(cover, corpus uint64) {
		samples = append(samples, Sample{
			VClock: uint64(len(samples)+1) * interval, CoverBlocks: cover, CorpusSize: corpus,
		})
	}
	add(5, 2) // baseline: no marks
	for i := 0; i < 3; i++ {
		add(5, 2) // plateau
	}
	add(5, 3) // corpus novelty only
	add(9, 3) // cover novelty clears the plateau counter
	for i := 0; i < 3; i++ {
		add(9, 3) // second plateau
	}

	marks := Detect(samples, DetectOptions{StallSamples: 3})
	want := []Mark{
		{MarkStall, 4 * interval, 5},
		{MarkCorpusNovelty, 5 * interval, 3},
		{MarkCoverNovelty, 6 * interval, 9},
		{MarkStall, 9 * interval, 9},
	}
	if len(marks) != len(want) {
		t.Fatalf("marks: got %+v want %+v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("mark %d: got %+v want %+v", i, marks[i], want[i])
		}
	}

	if v, ok := FirstStall(marks); !ok || v != 4*interval {
		t.Fatalf("FirstStall = %d, %v", v, ok)
	}
	if _, ok := FirstStall(nil); ok {
		t.Fatal("FirstStall on empty marks")
	}
}

func TestMarkEvents(t *testing.T) {
	ring := obs.NewRing(64)
	s := NewSampler(10, 0)
	s.Reset(ring, DetectOptions{StallSamples: 2})
	feed(s, mkSamples(8, 2, 10))
	var stalls, novelty int
	for _, e := range ring.Events() {
		switch e.Kind {
		case obs.EvStall:
			stalls++
		case obs.EvNovelty:
			novelty++
		}
	}
	if stalls == 0 || novelty == 0 {
		t.Fatalf("ring events: %d stalls, %d novelty", stalls, novelty)
	}
	if got, want := len(ring.Events()), len(s.Marks()); got != want {
		t.Fatalf("ring carries %d events for %d marks", got, want)
	}
}

func TestLiveHooks(t *testing.T) {
	s := NewSampler(10, 0)
	s.Reset(nil, DetectOptions{StallSamples: 2})
	var liveSamples []Sample
	var liveMarks []Mark
	s.SetLive(func(sm Sample) { liveSamples = append(liveSamples, sm) })
	s.SetLiveMark(func(m Mark) { liveMarks = append(liveMarks, m) })
	feed(s, mkSamples(8, 2, 10))
	if len(liveSamples) != len(s.Samples()) {
		t.Fatalf("live saw %d samples, recorded %d", len(liveSamples), len(s.Samples()))
	}
	if len(liveMarks) != len(s.Marks()) {
		t.Fatalf("live saw %d marks, recorded %d", len(liveMarks), len(s.Marks()))
	}
	s.Reset(nil, DetectOptions{})
	n := len(liveSamples)
	feed(s, mkSamples(3, 3, 10))
	if len(liveSamples) != n {
		t.Fatal("Reset must clear the live hooks")
	}
}

func mkJobs() []JobTimeline {
	samples := mkSamples(12, 4, 1000)
	return []JobTimeline{
		{ID: 0, Interval: 1000, Samples: samples, Marks: Detect(samples, DetectOptions{StallSamples: 3})},
		{ID: 1, Interval: 2000, Samples: mkSamples(3, 3, 2000)},
		{ID: 2, Interval: 500},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	jobs := mkJobs()
	enc := Encode(jobs)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(jobs) {
		t.Fatalf("decoded %d jobs, want %d", len(dec), len(jobs))
	}
	for i, j := range jobs {
		d := dec[i]
		if d.ID != j.ID || d.Interval != j.Interval ||
			len(d.Samples) != len(j.Samples) || len(d.Marks) != len(j.Marks) {
			t.Fatalf("job %d header diverged: %+v vs %+v", i, d, j)
		}
		for k := range j.Samples {
			if d.Samples[k] != j.Samples[k] {
				t.Fatalf("job %d sample %d: %+v vs %+v", i, k, d.Samples[k], j.Samples[k])
			}
		}
		for k := range j.Marks {
			if d.Marks[k] != j.Marks[k] {
				t.Fatalf("job %d mark %d: %+v vs %+v", i, k, d.Marks[k], j.Marks[k])
			}
		}
	}
	if reenc := Encode(dec); !bytes.Equal(reenc, enc) {
		t.Fatal("encode∘decode is not the identity")
	}
	if _, err := Decode(Encode(nil)); err != nil {
		t.Fatalf("empty timeline round trip: %v", err)
	}
}

// TestDecodeRejects: every strict prefix of a valid multi-job artefact is
// rejected, and every single-byte change is either rejected or decodes to
// jobs that re-encode to exactly the changed bytes. The named cases must be
// rejected outright; the count bombs decode to an empty job on a 32-bit
// build unless the counts are bounded before they become an int.
func TestDecodeRejects(t *testing.T) {
	good := Encode([]JobTimeline{
		{ID: 0, Interval: 1000, Samples: mkSamples(2, 2, 1000), Marks: []Mark{
			{Kind: MarkCoverNovelty, VClock: 1000, Value: 11},
			{Kind: MarkStall, VClock: 2000, Value: 11},
		}},
		{ID: 1, Interval: 2000, Samples: mkSamples(1, 1, 2000)},
		{ID: 2, Interval: 500},
	})
	for n := range good {
		if _, err := Decode(good[:n]); err == nil {
			t.Fatalf("strict prefix of %d/%d bytes decoded", n, len(good))
		}
	}
	mut := append([]byte(nil), good...)
	for i := range mut {
		for d := 1; d < 256; d++ {
			mut[i] = good[i] + byte(d)
			if dec, err := Decode(mut); err == nil && !bytes.Equal(Encode(dec), mut) {
				t.Fatalf("byte %d set to %#x decodes to a different re-encoding", i, mut[i])
			}
		}
		mut[i] = good[i]
	}

	set := func(i int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[i] = v
		return b
	}
	counts := func(nSamples, nMarks uint32) []byte {
		b := Encode([]JobTimeline{{ID: 0, Interval: 1}})
		binary.LittleEndian.PutUint32(b[tlHeaderSize+12:], nSamples)
		binary.LittleEndian.PutUint32(b[tlHeaderSize+16:], nMarks)
		return b
	}
	markKind := func(k byte) []byte {
		b := Encode([]JobTimeline{{ID: 0, Interval: 1, Marks: []Mark{{Kind: MarkStall, VClock: 1, Value: 2}}}})
		b[len(b)-tlMarkSize] = k
		return b
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"bad magic", set(3, 'R')},
		{"bad version", set(4, 9)},
		{"reserved", set(6, 1)},
		{"trailing", append(append([]byte(nil), good...), 0)},
		{"job bomb", append(Encode(nil)[:8], 0xff, 0xff, 0, 0)},
		{"sample count bomb", counts(0x80000000, 0)},
		{"mark count bomb", counts(0, 0x80000000)},
		{"sample and mark count bomb", counts(0xffffffff, 0xffffffff)},
		{"zero mark kind", markKind(0)},
		{"unknown mark kind", markKind(0xee)},
	} {
		if _, err := Decode(c.data); err == nil {
			t.Errorf("%s: decode accepted malformed input", c.name)
		}
	}
}

// TestDecodeRejectsVersion1: version-1 artefacts carried two more sample
// words (elided and run sanitizer checks); version 2 rejects them, the
// empty one included, instead of misreading their samples.
func TestDecodeRejectsVersion1(t *testing.T) {
	v1 := func(samples int) []byte {
		b := []byte("EMTL\x01\x00\x00\x00\x01\x00\x00\x00")
		job := make([]byte, tlJobHeaderSize+samples*15*8)
		job[4] = 1 // interval
		job[12] = byte(samples)
		return append(b, job...)
	}
	for _, samples := range []int{0, 1, 3} {
		if _, err := Decode(v1(samples)); err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("version-1 artefact with %d samples: err = %v, want an unsupported-version error", samples, err)
		}
	}
}

func TestGrowthCurveShape(t *testing.T) {
	jobs := mkJobs()
	out := GrowthCurve(jobs)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	wantLines := 0
	for _, j := range jobs {
		wantLines += len(j.Samples)*len(growthSeries) + len(j.Marks)
	}
	if len(lines) != wantLines {
		t.Fatalf("%d folded lines, want %d", len(lines), wantLines)
	}
	if !strings.HasPrefix(lines[0], "campaign-0;cover;") {
		t.Fatalf("first line %q", lines[0])
	}
	if !strings.Contains(out, ";mark;stall;") {
		t.Fatal("stall mark missing from folded output")
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "campaign-") || !strings.Contains(l, " ") {
			t.Fatalf("malformed folded line %q", l)
		}
	}
	if GrowthCurve(nil) != "" {
		t.Fatal("empty timeline should fold to nothing")
	}
}

func TestChromeCountersValidate(t *testing.T) {
	data := ChromeCounters(mkJobs())
	if err := obs.ValidateChrome(data); err != nil {
		t.Fatalf("ChromeCounters output invalid: %v\n%s", err, data)
	}
	if !bytes.Contains(data, []byte(`"ph":"C"`)) {
		t.Fatal("no counter events")
	}
	if !bytes.Contains(data, []byte(`"ph":"i"`)) {
		t.Fatal("no mark instants")
	}
	if err := obs.ValidateChrome(ChromeCounters(nil)); err != nil {
		t.Fatalf("empty ChromeCounters invalid: %v", err)
	}
}

func TestOpenMetricsShape(t *testing.T) {
	out := string(OpenMetrics(mkJobs()))
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatal("missing # EOF terminator")
	}
	for _, g := range growthSeries {
		if !strings.Contains(out, "# HELP embsan_timeline_"+g.name+" ") {
			t.Fatalf("missing HELP for %s", g.name)
		}
		if !strings.Contains(out, "# TYPE embsan_timeline_"+g.name+" gauge") {
			t.Fatalf("missing TYPE for %s", g.name)
		}
	}
	if !strings.Contains(out, `embsan_timeline_cover{campaign="0"} `) {
		t.Fatal("missing campaign-labelled series")
	}
	// Timestamps (the virtual clock) are the last field of each sample line.
	for _, l := range strings.Split(out, "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		if fields := strings.Fields(l); len(fields) != 3 {
			t.Fatalf("sample line %q: want name value timestamp", l)
		}
	}
}

func TestMarkKindString(t *testing.T) {
	if MarkStall.String() != "stall" || MarkCoverNovelty.String() != "cover-novelty" ||
		MarkCorpusNovelty.String() != "corpus-novelty" {
		t.Fatal("mark names drifted")
	}
	if MarkKind(0).Valid() || MarkKind(99).Valid() {
		t.Fatal("invalid kinds accepted")
	}
	if MarkKind(0).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}
