// Command embsan-bench regenerates the paper's evaluation artefacts:
// every table and the overhead figure, printed as text.
//
// Usage:
//
//	embsan-bench -table 1         # firmware registry (Table 1)
//	embsan-bench -table 2         # known-bug detection matrix (Table 2)
//	embsan-bench -table 3         # fuzzing campaign classification (Table 3)
//	embsan-bench -table 4         # full found-bug list (Table 4)
//	embsan-bench -figure 2        # runtime overhead (Figure 2)
//	embsan-bench -all [-workers 4]
//
// The table 3/4 campaigns run on the deterministic parallel executor
// (internal/sched); -workers sizes its pool without changing any output.
package main

import (
	"flag"
	"fmt"
	"os"

	"embsan/internal/exps"
	"embsan/internal/guest/firmware"
	"embsan/internal/obs"
	"embsan/internal/sched"
)

func main() {
	var (
		table   = flag.Int("table", 0, "regenerate table N (1-4)")
		figure  = flag.Int("figure", 0, "regenerate figure N (2)")
		all     = flag.Bool("all", false, "regenerate everything")
		execs   = flag.Int("execs", 30000, "campaign budget for tables 3/4")
		progs   = flag.Int("programs", 16, "workload size for figure 2")
		seed    = flag.Int64("seed", 7, "RNG seed")
		workers = flag.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS, 1 = serial)")
		trace   = flag.String("trace", "", "capture table 3/4 campaign traces and write a Chrome trace_event JSON to this file")
		metrics = flag.Bool("metrics", false, "append the per-phase virtual-time breakdown to the campaign stats")
	)
	flag.Parse()

	run := func(n int) bool { return *all || *table == n }

	var campaigns []*exps.Campaign
	var workerStats []sched.WorkerStats
	needCampaigns := run(3) || *table == 4 || *all

	if run(1) {
		fws, err := firmware.BuildAll()
		if err != nil {
			fatal(err)
		}
		fmt.Println(exps.FormatTable1(fws))
	}
	if run(2) {
		rows, err := exps.RunTable2()
		if err != nil {
			fatal(err)
		}
		fmt.Println(exps.FormatTable2(rows))
	}
	if needCampaigns {
		cr, err := exps.RunCampaignSet(nil, exps.CampaignOptions{Execs: *execs, Seed: *seed, Workers: *workers,
			Trace: *trace != "", Metrics: *metrics})
		if err != nil {
			fatal(err)
		}
		campaigns = cr.Campaigns
		workerStats = cr.Workers
		if *trace != "" {
			data := obs.ChromeTrace(exps.JobTraces(campaigns))
			if err := os.WriteFile(*trace, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("trace written to %s (%d bytes)\n", *trace, len(data))
		}
	}
	if run(3) {
		fmt.Println(exps.FormatTable3(campaigns))
		fmt.Println(exps.FormatCampaignStats(campaigns, workerStats...))
	}
	if run(4) || (*all && campaigns != nil) {
		fmt.Println(exps.FormatTable4(campaigns))
	}
	if *figure == 2 || *all {
		rows, err := exps.RunOverhead(firmware.Names, exps.OverheadOptions{Programs: *progs, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		fmt.Println(exps.FormatFigure2(rows))
	}
	if !*all && *table == 0 && *figure == 0 {
		flag.Usage()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "embsan-bench:", err)
	os.Exit(1)
}
