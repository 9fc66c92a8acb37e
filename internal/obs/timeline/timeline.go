// Package timeline is EMBSAN's deterministic campaign-progress telemetry:
// a fixed metric vector sampled every K retired guest instructions on the
// campaign's cumulative virtual clock. Where internal/obs answers "what
// happened at instruction N", timeline answers "how did the campaign
// evolve" — coverage growth, corpus size, dispatch mix, chain-hit and
// KCSAN arming rates over virtual time.
//
// The design constraints are the obs package's, inherited verbatim:
//
//  1. Virtual time only. The sample clock is cumulative retired guest
//     instructions across a campaign's executions (the machine's own
//     icnt rewinds on every snapshot restore, so the fuzzer accumulates
//     per-exec instruction counts instead). A job's timeline is a pure
//     function of its campaign index; merging per-campaign timelines in
//     index order yields bytes identical for every worker count.
//
//  2. Zero cost when off, zero alloc when on. The emit site in the
//     fuzzer's execution loop is one nil check; an Advance below the
//     next sample threshold is one comparison; a crossing Advance writes
//     into a preallocated sample buffer. The same discipline
//     obs.TestEmitZeroAlloc pins for ring emits applies here.
//
// On top of the sampler sit the plateau/novelty detector (detect.go),
// the canonical EMTL codec (codec.go) and the growth-curve, Chrome
// counter-event and OpenMetrics exporters (export.go).
package timeline

import "embsan/internal/obs"

// Sample is the fixed metric vector captured at each sampling point. All
// fields are cumulative campaign-relative counts (raw counters, never
// rates — readers derive rates from them, so merged or decimated
// timelines stay exact). The vector is fixed-width on purpose: the EMTL
// codec serialises it as sampleWords (13) little-endian u64 words.
type Sample struct {
	// VClock is the sample timestamp: cumulative retired guest
	// instructions since the campaign started.
	VClock uint64

	// Campaign progress.
	Execs       uint64 // fuzzer executions driven
	CoverBlocks uint64 // distinct translation-block entry PCs covered
	CorpusSize  uint64 // coverage-expanding inputs retained
	Found       uint64 // deduplicated crash findings

	// Dispatch mix per pipeline phase, in the obs.Phases work units:
	// instruction words decoded, instructions retired, sanitizer
	// dispatches, snapshot pages copied back.
	Translate uint64
	Execute   uint64
	Sanitize  uint64
	Snapshot  uint64

	// Fast-path accounting: block transfers resolved by a patched exit
	// chain vs dispatcher entries (chain-hit% = ChainHits/(ChainHits+
	// Dispatches)).
	ChainHits  uint64
	Dispatches uint64

	// KCSAN sampling: accesses that reached the arming decision and
	// watchpoints actually armed (arming rate = Armed/Evals).
	KCSANEvals uint64
	KCSANArmed uint64
}

// sampleWords is the number of u64 words in the fixed vector (codec.go
// depends on it; extending Sample means bumping the EMTL version).
const sampleWords = 13

// JobTimeline is one campaign's sampled timeline, addressed by the
// campaign index the scheduler merges results on. Concatenating
// JobTimelines in index order is the canonical merged timeline — byte
// identical for every worker count because each job's samples are.
type JobTimeline struct {
	ID       int
	Interval uint64 // effective sample period (doubles under decimation)
	Samples  []Sample
	Marks    []Mark
}

// DefaultInterval is the default sample period in retired instructions.
const DefaultInterval = 1 << 20

// DefaultMaxSamples bounds the per-campaign sample buffer; beyond it the
// sampler decimates (keeps every other sample, doubles the interval), so
// arbitrarily long campaigns stay bounded without losing determinism.
const DefaultMaxSamples = 2048

// Sampler captures one job's timeline. A sampler belongs to exactly one
// scheduler worker (the obs.Ring ownership rule); Reset rewinds it
// between jobs so the buffer is reused without leaking samples across
// campaigns. Advance is the hot-path entry: the fuzzer calls it after
// every execution with the cumulative instruction clock, and a call
// below the next threshold is a single comparison.
type Sampler struct {
	baseInterval uint64
	interval     uint64
	next         uint64
	samples      []Sample
	det          detector
	marks        []Mark
	ring         *obs.Ring    // stall/novelty events, when tracing is on
	live         func(Sample) // wall-clock view hook (embsan monitor); never feeds back
	liveMark     func(Mark)   // wall-clock mark hook, same contract as live
}

// NewSampler creates a sampler with the given period (retired
// instructions per sample; <=0 means DefaultInterval) holding at most
// maxSamples samples (<=0 means DefaultMaxSamples).
func NewSampler(interval uint64, maxSamples int) *Sampler {
	if interval == 0 {
		interval = DefaultInterval
	}
	if maxSamples <= 0 {
		maxSamples = DefaultMaxSamples
	}
	if maxSamples < 2 {
		maxSamples = 2 // decimation needs room to halve
	}
	s := &Sampler{
		baseInterval: interval,
		samples:      make([]Sample, 0, maxSamples),
		marks:        make([]Mark, 0, 64),
	}
	s.Reset(nil, DetectOptions{})
	return s
}

// Reset rewinds the sampler for a new job: samples, marks and detector
// state clear, the interval returns to its base value (decimation may
// have doubled it), and the optional ring receives the job's stall and
// novelty trace events. The live hook is cleared too — it is per-job.
func (s *Sampler) Reset(ring *obs.Ring, det DetectOptions) {
	s.interval = s.baseInterval
	s.next = s.baseInterval
	s.samples = s.samples[:0]
	s.marks = s.marks[:0]
	s.det = detector{opts: det.withDefaults()}
	s.ring = ring
	s.live = nil
	s.liveMark = nil
}

// SetLive installs a per-sample observer for wall-clock liveness views
// (the monitor's SSE stream). The hook sees each sample as it is taken
// but must never feed back into campaign state: the canonical timeline
// stays a pure function of (firmware, seed, options) with or without it.
func (s *Sampler) SetLive(fn func(Sample)) { s.live = fn }

// SetLiveMark installs a per-mark observer with the same contract as
// SetLive: the monitor's stall/novelty notifications, never campaign
// state.
func (s *Sampler) SetLiveMark(fn func(Mark)) { s.liveMark = fn }

// Interval returns the effective sample period (base, or doubled by
// decimation).
func (s *Sampler) Interval() uint64 { return s.interval }

// BaseInterval returns the configured sample period before any
// decimation doubling.
func (s *Sampler) BaseInterval() uint64 { return s.baseInterval }

// Cap returns the sample buffer capacity the sampler was built with.
func (s *Sampler) Cap() int { return cap(s.samples) }

// Advance is the per-execution emit site. When vclock has crossed the
// next sample threshold it takes one sample, filling the vector through
// fill (which must only read campaign state); otherwise it returns after
// one comparison. It never allocates once the sampler is constructed.
func (s *Sampler) Advance(vclock uint64, fill func(*Sample)) {
	if vclock < s.next {
		return
	}
	s.take(vclock, fill)
	s.next = (vclock/s.interval + 1) * s.interval
}

// Flush takes a terminal sample at vclock unless the last sample already
// sits there, so every campaign ends with its final state on record (and
// short campaigns below one interval still produce a timeline).
func (s *Sampler) Flush(vclock uint64, fill func(*Sample)) {
	if n := len(s.samples); n > 0 && s.samples[n-1].VClock == vclock {
		return
	}
	s.take(vclock, fill)
}

func (s *Sampler) take(vclock uint64, fill func(*Sample)) {
	if len(s.samples) == cap(s.samples) {
		s.decimate()
	}
	s.samples = append(s.samples, Sample{VClock: vclock})
	sm := &s.samples[len(s.samples)-1]
	fill(sm)
	sm.VClock = vclock
	s.marks = s.det.step(*sm, s.marks)
	for i := len(s.marks) - s.det.emitted; i < len(s.marks); i++ {
		if s.ring != nil {
			s.ring.Emit(s.marks[i].event())
		}
		if s.liveMark != nil {
			s.liveMark(s.marks[i])
		}
	}
	if s.live != nil {
		s.live(*sm)
	}
}

// decimate halves the retained samples (keeping even indices) and
// doubles the interval — a pure function of the sample stream, so a
// decimated timeline is still identical across worker counts. Marks are
// never decimated: they were detected on the full-resolution stream.
func (s *Sampler) decimate() {
	keep := 0
	for i := 0; i < len(s.samples); i += 2 {
		s.samples[keep] = s.samples[i]
		keep++
	}
	s.samples = s.samples[:keep]
	s.interval *= 2
}

// Samples returns a copy of the captured timeline.
func (s *Sampler) Samples() []Sample {
	return append([]Sample(nil), s.samples...)
}

// Marks returns a copy of the detected plateau/novelty marks.
func (s *Sampler) Marks() []Mark {
	return append([]Mark(nil), s.marks...)
}
