package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// fingerprints.json holds, per workload and input set, the deterministic
// work each operation must reproduce: one line per campaign (firmware,
// execs, guest instructions, restored pages, sanitizer checks, cover blocks,
// found seeded bugs) or one line per replayed firmware (inputs, guest
// instructions, restored pages, sanitizer checks, digest of the per-input
// outcomes). Regenerate it with -record after a change that is meant to
// alter guest-visible behaviour.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

type fingerprints map[string]map[string][]string

func loadFingerprints() (fingerprints, error) {
	var fps fingerprints
	if err := json.Unmarshal(fingerprintsJSON, &fps); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return fps, nil
}

// campaignLine is the fingerprint of one campaign.
func campaignLine(fw string, execs, insts, pages, checks float64, cover int, bugs []string) string {
	b := append([]string(nil), bugs...)
	sort.Strings(b)
	return fmt.Sprintf("%s|%.0f|%.0f|%.0f|%.0f|%d|%s", fw, execs, insts, pages, checks, cover, strings.Join(b, ","))
}

// replayLine is the fingerprint of one pass over one firmware's corpus.
func replayLine(fw string, inputs int, insts, pages, checks float64, outcomes []string) string {
	sum := sha256.Sum256([]byte(strings.Join(outcomes, "\n")))
	return fmt.Sprintf("%s|%d|%.0f|%.0f|%.0f|%s", fw, inputs, insts, pages, checks, hex.EncodeToString(sum[:8]))
}

// checkLines compares got against want line by line, counting each line as
// one attempted operation and each difference as a failed one.
func checkLines(t *tally, what string, got, want []string) {
	for i := 0; i < len(got) || i < len(want); i++ {
		t.attempted++
		switch {
		case i >= len(want):
			t.fail("%s: unexpected operation %d: %s", what, i, got[i])
		case i >= len(got):
			t.fail("%s: missing operation %d: want %s", what, i, want[i])
		case got[i] != want[i]:
			t.fail("%s: operation %d: got %s, want %s", what, i, got[i], want[i])
		}
	}
}

// recordAll recomputes the fingerprint of every workload and input set and
// writes them to path.
func recordAll(path string) error {
	fps := fingerprints{}
	for _, name := range workloadOrder {
		w := workloads[name]
		fps[name] = map[string][]string{}
		for set := 0; set < inputSets; set++ {
			var lines []string
			var err error
			if w.replay {
				lines, err = replayFingerprint(w, set)
			} else {
				lines, err = campaignSetRound(w, set)
			}
			if err != nil {
				return fmt.Errorf("%s set %d: %w", name, set, err)
			}
			fps[name][fmt.Sprint(set)] = lines
			fmt.Fprintf(os.Stderr, "recorded %s set %d\n", name, set)
		}
	}
	out, err := json.MarshalIndent(fps, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
