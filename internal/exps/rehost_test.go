package exps

import (
	"runtime"
	"strings"
	"testing"
)

// TestRehostCampaignsFindSeededBugs is the rehosting pipeline's acceptance
// test: the mystery image is lifted with no source or metadata access, the
// Prober classifies its allocator behaviourally through the synthesized
// bridge, and a standard campaign then finds both seeded heap bugs on every
// frontend.
func TestRehostCampaignsFindSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("full rehost campaigns are long; run without -short")
	}
	run, err := RunRehostCampaigns(CampaignOptions{Execs: 30000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Campaigns) != len(RehostArches) {
		t.Fatalf("%d campaigns, want %d", len(run.Campaigns), len(RehostArches))
	}
	for _, c := range run.Campaigns {
		for _, missed := range c.Missed {
			t.Errorf("%s: seeded bug %s not found by the campaign", c.Firmware.Name, missed)
		}
		for _, f := range c.Found {
			switch f.Fn {
			case "mys_cfg":
				if f.Class != "OOB Access" {
					t.Errorf("%s: %s classified %q, want OOB Access", c.Firmware.Name, f.Fn, f.Class)
				}
			case "mys_sess":
				if f.Class != "UAF" {
					t.Errorf("%s: %s classified %q, want UAF", c.Firmware.Name, f.Fn, f.Class)
				}
			default:
				t.Errorf("%s: unexpected finding %+v", c.Firmware.Name, f)
			}
		}
	}
	stats := FormatCampaignStats(run.Campaigns, run.Workers...)
	for _, want := range []string{"Mystery-arm32e", "Mystery-mips32e", "Mystery-x86e"} {
		if !strings.Contains(stats, want) {
			t.Errorf("stats table missing %q:\n%s", want, stats)
		}
	}
}

// TestRehostCampaignDeterminismAcrossWorkers: the rehosted family obeys the
// same bit-reproducibility contract as the registry — merged stats and
// report sets are byte-identical for every worker count.
func TestRehostCampaignDeterminismAcrossWorkers(t *testing.T) {
	opts := CampaignOptions{Execs: 400, Seed: 11}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	prints := make([]string, len(counts))
	for i, workers := range counts {
		opts.Workers = workers
		run, err := RunRehostCampaigns(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		prints[i] = campaignFingerprint(run.Campaigns)
	}
	for i := 1; i < len(counts); i++ {
		if prints[i] != prints[0] {
			t.Errorf("workers=%d diverged from workers=%d:\n%s\n---\n%s",
				counts[i], counts[0], prints[0], prints[i])
		}
	}
}
