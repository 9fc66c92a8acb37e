// Command embsan-fuzz runs an EMBSAN-assisted fuzzing campaign against one
// bundled firmware, mirroring the paper's Table 3/4 pipeline: boot, probe,
// attach the sanitizer runtime, then drive the Syzkaller- or Tardis-style
// frontend until the execution budget is exhausted.
//
// Campaigns run on the deterministic parallel executor (internal/sched):
// -workers sizes the machine pool (default GOMAXPROCS; 1 keeps the serial
// path) and merged results are bit-identical for every worker count.
//
// Usage:
//
//	embsan-fuzz -firmware OpenWRT-bcm63xx [-execs 30000] [-seed 7]
//	embsan-fuzz -all [-workers 4] [-repeats 2]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"embsan"
	"embsan/internal/exps"
	"embsan/internal/guest/firmware"
	"embsan/internal/obs"
	"embsan/internal/obs/timeline"
	"embsan/internal/sched"
)

func sanitizeName(n string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, n)
}

func main() {
	var (
		fwName  = flag.String("firmware", "", "bundled firmware name")
		all     = flag.Bool("all", false, "fuzz every Table 1 firmware")
		execs   = flag.Int("execs", 30000, "execution budget per campaign")
		seed    = flag.Int64("seed", 7, "base campaign seed (campaign i uses splitmix64(seed, i))")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		repeats = flag.Int("repeats", 1, "independent campaigns per firmware")
		outDir  = flag.String("out", "", "save corpus and crash artifacts under this directory")
		trace   = flag.String("trace", "", "capture per-campaign event traces and write a Chrome trace_event JSON to this file")
		metrics = flag.Bool("metrics", false, "print merged campaign metrics and the per-phase virtual-time breakdown")
		tlOut   = flag.String("timeline", "", "sample per-campaign progress timelines and write the canonical EMTL artifact to this file (.emtl; .txt/.json/.om siblings via -timeline-export)")
		tlExp   = flag.String("timeline-export", "", "also export the timeline as comma-separated views: growth (folded text), chrome (counter trace), openmetrics")
	)
	flag.Parse()

	opts := exps.CampaignOptions{Execs: *execs, Seed: *seed, Workers: *workers, Repeats: *repeats,
		Trace: *trace != "", Metrics: *metrics, Timeline: *tlOut != ""}
	var campaigns []*exps.Campaign
	var workerStats []sched.WorkerStats
	switch {
	case *all:
		run, err := exps.RunCampaignSet(nil, opts)
		if err != nil {
			fatal(err)
		}
		campaigns = run.Campaigns
		workerStats = run.Workers
	case *fwName != "":
		fw, err := embsan.BuildFirmware(*fwName)
		if err != nil {
			fatal(err)
		}
		run, err := exps.RunCampaignSet([]*firmware.Firmware{fw}, opts)
		if err != nil {
			fatal(err)
		}
		campaigns = run.Campaigns
		workerStats = run.Workers
	default:
		fatal(fmt.Errorf("need -firmware or -all"))
	}

	if *outDir != "" {
		for _, c := range campaigns {
			dir := filepath.Join(*outDir, sanitizeName(c.Firmware.Name))
			if err := c.Raw.SaveArtifacts(dir, c.Firmware.Image); err != nil {
				fatal(err)
			}
			fmt.Printf("artifacts saved to %s\n", dir)
		}
	}

	if *trace != "" {
		data := obs.ChromeTrace(exps.JobTraces(campaigns))
		if err := os.WriteFile(*trace, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (%d bytes)\n", *trace, len(data))
	}
	if *tlOut != "" {
		jobs := exps.JobTimelines(campaigns)
		data := timeline.Encode(jobs)
		if err := os.WriteFile(*tlOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("timeline written to %s (%d bytes, %d campaigns)\n", *tlOut, len(data), len(jobs))
		base := strings.TrimSuffix(*tlOut, filepath.Ext(*tlOut))
		for _, view := range strings.Split(*tlExp, ",") {
			var out []byte
			var path string
			switch strings.TrimSpace(view) {
			case "":
				continue
			case "growth":
				out, path = []byte(timeline.GrowthCurve(jobs)), base+".txt"
			case "chrome":
				out, path = timeline.ChromeCounters(jobs), base+".json"
			case "openmetrics":
				out, path = timeline.OpenMetrics(jobs), base+".om"
			default:
				fatal(fmt.Errorf("unknown -timeline-export view %q (want growth, chrome, openmetrics)", view))
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("timeline view written to %s (%d bytes)\n", path, len(out))
		}
	}
	if *metrics {
		var regs []*obs.Registry
		for _, c := range campaigns {
			if c.Raw != nil {
				regs = append(regs, c.Raw.Metrics)
			}
		}
		fmt.Print(obs.Merge(regs...).Text())
		fmt.Println()
	}
	fmt.Print(exps.FormatCampaignStats(campaigns, workerStats...))
	fmt.Println()
	for _, c := range campaigns {
		for _, f := range c.Found {
			fmt.Printf("%-24s %-36s %-12s (after %d execs)\n", f.Firmware, f.Location, f.Class, f.Execs)
		}
		for _, m := range c.Missed {
			fmt.Printf("%-24s MISSED: %s\n", c.Firmware.Name, m)
		}
	}
	total := 0
	for _, c := range campaigns {
		total += len(c.Found)
	}
	fmt.Printf("\n%d bugs found across %d firmware\n", total, len(campaigns))
	_ = firmware.Names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "embsan-fuzz:", err)
	os.Exit(1)
}
