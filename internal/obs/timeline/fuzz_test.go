package timeline

import (
	"bytes"
	"testing"
)

// FuzzTimelineRoundTrip fuzzes the EMTL codec: any input that decodes
// must re-encode to exactly the same bytes (the encoding is canonical),
// and the decoded jobs must survive a second round trip. Inputs that do
// not decode must fail with an error, never a panic.
func FuzzTimelineRoundTrip(f *testing.F) {
	f.Add(Encode(nil))
	f.Add(Encode(mkJobs()))
	f.Add(Encode([]JobTimeline{{ID: 7, Interval: 1 << 20}}))
	f.Add(Encode([]JobTimeline{{
		ID: 0, Interval: 1,
		Samples: mkSamples(2, 2, 1),
		Marks:   []Mark{{Kind: MarkCorpusNovelty, VClock: 2, Value: 9}},
	}}))
	f.Add([]byte("EMTL"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := Decode(data)
		if err != nil {
			return // rejected inputs just need to not panic
		}
		enc := Encode(jobs)
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode→encode is not the identity:\n in: %x\nout: %x", data, enc)
		}
		jobs2, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical bytes failed to decode: %v", err)
		}
		if len(jobs2) != len(jobs) {
			t.Fatalf("second decode diverged: %d jobs vs %d", len(jobs2), len(jobs))
		}
		for i := range jobs {
			a, b := jobs[i], jobs2[i]
			if a.ID != b.ID || a.Interval != b.Interval ||
				len(a.Samples) != len(b.Samples) || len(a.Marks) != len(b.Marks) {
				t.Fatalf("job %d diverged: %+v vs %+v", i, a, b)
			}
			for k := range a.Samples {
				if a.Samples[k] != b.Samples[k] {
					t.Fatalf("job %d sample %d diverged", i, k)
				}
			}
			for k := range a.Marks {
				if a.Marks[k] != b.Marks[k] {
					t.Fatalf("job %d mark %d diverged", i, k)
				}
			}
		}
	})
}
