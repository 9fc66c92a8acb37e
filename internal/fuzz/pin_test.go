package fuzz

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"embsan/internal/core"
	"embsan/internal/guest/firmware"
	"embsan/internal/obs/timeline"
	"embsan/internal/static"
)

// pinnedOutcome is everything a campaign produces that a caller can see:
// its Stats, the sorted crash signatures (with the exec count each was first
// found at), and digests of the minimized reproducers, the saved corpus and
// the timeline's progress columns.
type pinnedOutcome struct {
	Stats    Stats
	Crashes  []string
	Repro    string
	Corpus   string
	Timeline string
}

// TestCampaignOutcomePinned pins whole-campaign outcomes for one firmware
// per frontend at a fixed seed and budget. The fuzzer's bookkeeping (the
// coverage set, the sanitizer's restore) is pure overhead: a change to how
// it is stored must leave every campaign byte-identical, so these values
// only move when the fuzzer's search itself changes.
func TestCampaignOutcomePinned(t *testing.T) {
	cases := []struct {
		firmware string
		seed     int64
		execs    int
		want     pinnedOutcome
	}{
		{"InfiniTime", 5, 20000, pinnedOutcome{
			Stats: Stats{Execs: 20000, CorpusSize: 114, CoverBlocks: 209, Insts: 5042691,
				CoverLeaders: 76, ReachableBlocks: 90},
			Crashes: []string{
				"KASAN:slab-out-of-bounds:lfs_bd_read@962",
				"KASAN:slab-out-of-bounds:spi_transfer@2008",
				"KASAN:use-after-free:st7789_draw@15802",
			},
			Repro:    "4c392b1263780ee8",
			Corpus:   "2e9ed2e2b3920da9",
			Timeline: "debfb3c46129b493",
		}},
		{"OpenWRT-mt7629", 7, 6000, pinnedOutcome{
			Stats: Stats{Execs: 6000, CorpusSize: 174, CoverBlocks: 405, Insts: 6926114,
				CoverLeaders: 88, ReachableBlocks: 103},
			Crashes: []string{
				"KASAN:double-free:mtk_cqdma_issue@608",
				"KASAN:double-free:skb_clone_frag@1831",
				"KASAN:slab-out-of-bounds:mtk_tx_map@104",
				"KASAN:slab-out-of-bounds:nfs_readdir_entry@523",
			},
			Repro:    "8a6837aa710524c1",
			Corpus:   "7c222173ca5667ab",
			Timeline: "38a121b6403309d6",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.firmware, func(t *testing.T) {
			got := pinnedCampaign(t, tc.firmware, tc.seed, tc.execs)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("campaign outcome moved:\n got: %+v\nwant: %+v", got, tc.want)
			}
		})
	}
}

// pinnedCampaign boots name, runs one fixed campaign on it and returns the
// outcome.
func pinnedCampaign(t *testing.T, name string, seed int64, execs int) pinnedOutcome {
	t.Helper()
	fw, err := firmware.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := fw.Machine
	mcfg.MaxHarts = 2
	mcfg.Seed = uint64(seed)
	inst, err := core.New(core.Config{
		Image:        fw.Image,
		Sanitizers:   []string{"kasan"},
		StopOnReport: true,
		Machine:      mcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Boot(200_000_000); err != nil {
		t.Fatal(err)
	}
	inst.Snapshot()
	an, err := static.Analyze(fw.Image)
	if err != nil {
		t.Fatal(err)
	}
	tl := timeline.NewSampler(20_000, 64)
	cfg := Config{
		Instance:         inst,
		Seeds:            fw.Seeds,
		Seed:             seed,
		MaxExecs:         execs,
		ReachableLeaders: an.ReachableLeaders(),
		Timeline:         tl,
	}
	if fw.Frontend == firmware.FrontendSyscall {
		cfg.Frontend = FrontendSyscall
		cfg.Syscalls = len(fw.Syscalls)
	} else {
		cfg.Frontend = FrontendBytes
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()

	out := pinnedOutcome{Stats: res.Stats}
	sort.Slice(res.Crashes, func(i, j int) bool { return res.Crashes[i].Signature < res.Crashes[j].Signature })
	var repro [][]byte
	for _, c := range res.Crashes {
		out.Crashes = append(out.Crashes, fmt.Sprintf("%s@%d", c.Signature, c.Execs))
		repro = append(repro, c.Minimized)
	}
	out.Repro = digest(repro)
	out.Corpus = digest(res.Corpus)
	h := sha256.New()
	for _, s := range tl.Samples() {
		fmt.Fprintf(h, "%d:%d:%d:%d:%d;", s.VClock, s.Execs, s.CoverBlocks, s.CorpusSize, s.Found)
	}
	out.Timeline = fmt.Sprintf("%x", h.Sum(nil)[:8])
	return out
}

// digest hashes a list of inputs, length-prefixed so entry boundaries count.
func digest(inputs [][]byte) string {
	h := sha256.New()
	for _, in := range inputs {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(in)))
		h.Write(n[:])
		h.Write(in)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
