// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — a set of fuzzing campaigns or a corpus replay over the Table 1
// firmware — for a fixed wall-clock time, checks every result against the
// deterministic fingerprint recorded for the workload and seed, and prints
// one JSON object as the last line of standard output.
//
//	perfbench -workload campaign-linux -seed 3 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it makes a
// separate traced run and reports the per-layer metrics instead. README.md
// explains the workloads and the measurement rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations attempted and failed, logging every failure.
type tally struct {
	attempted, failed int
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload name (campaign-linux, campaign-rtos, replay-linux)")
	seed := flag.Int64("seed", 0, "workload seed; selects one of the recorded input sets")
	seconds := flag.Int("seconds", 10, "length of the measurement in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	record := flag.String("record", "", "recompute the fingerprints of every input set and write them to this file")
	flag.Parse()

	if *record != "" {
		if err := recordAll(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	fps, err := loadFingerprints()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	set := inputSet(*seed)
	want, ok := fps[w.name][fmt.Sprint(set)]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no recorded fingerprint for %s input set %d\n", w.name, set)
		os.Exit(1)
	}

	var res *result
	if *trace == 1 {
		res, err = runTraced(w, set, want, time.Duration(*seconds)*time.Second)
	} else {
		res, err = runEndToEnd(w, set, want, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
