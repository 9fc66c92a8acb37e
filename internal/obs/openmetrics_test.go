package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("emu.tb.hits").Add(1234)
	r.Counter("emu.tb.misses").Add(7)
	r.Counter("fuzz.execs").Add(42)
	r.Gauge("campaign.corpus.size").Set(19)
	h := r.Histogram("fuzz.exec.insts", []uint64{100, 1000, 10000})
	h.Observe(50)
	h.Observe(150)
	h.Observe(150)
	h.Observe(99999)
	return r
}

func TestOpenMetricsGolden(t *testing.T) {
	got := goldenRegistry().OpenMetrics()
	path := filepath.Join("testdata", "metrics.openmetrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("OpenMetrics output drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestOpenMetricsShape(t *testing.T) {
	out := string(goldenRegistry().OpenMetrics())
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("missing # EOF terminator")
	}
	for _, want := range []string{
		"# HELP emu_tb_hits EMBSAN counter instrument\n",
		"# HELP campaign_corpus_size EMBSAN gauge instrument\n",
		"# HELP fuzz_exec_insts EMBSAN histogram instrument\n",
		"# TYPE emu_tb_hits counter\n",
		"emu_tb_hits_total 1234\n",
		"# TYPE campaign_corpus_size gauge\n",
		"campaign_corpus_size 19\n",
		"# TYPE fuzz_exec_insts histogram\n",
		// Buckets are cumulative: 1 sample <=100, +2 <=1000, +0 <=10000,
		// +1 overflow.
		"fuzz_exec_insts_bucket{le=\"100\"} 1\n",
		"fuzz_exec_insts_bucket{le=\"1000\"} 3\n",
		"fuzz_exec_insts_bucket{le=\"10000\"} 3\n",
		"fuzz_exec_insts_bucket{le=\"+Inf\"} 4\n",
		"fuzz_exec_insts_sum 100349\n",
		"fuzz_exec_insts_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, ".") {
		t.Error("dotted name leaked into exposition")
	}
}

func TestOpenMetricsDeterministic(t *testing.T) {
	a := goldenRegistry().OpenMetrics()
	b := goldenRegistry().OpenMetrics()
	if !bytes.Equal(a, b) {
		t.Error("two expositions of identical registries differ")
	}
}
