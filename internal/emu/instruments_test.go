package emu

import "testing"

// TestInstrumentNames pins the registry of a fresh machine as perfbench and
// `embsan trace` read it: every engine counter by name, including the two
// elided counters that nothing increments. A renamed or dropped instrument
// fails here instead of only at benchmark time, where a reader by name
// would see a missing count.
func TestInstrumentNames(t *testing.T) {
	m := newMachine(t, chainLoopImage(t, 1))
	const want = `{"counters":{` +
		`"emu.chain.hits":0,"emu.dispatch.entries":0,` +
		`"emu.inline.fast":0,"emu.inline.slow":0,` +
		`"emu.mem.elided":0,"emu.mem.probes":0,` +
		`"emu.mmio.reads":0,"emu.mmio.writes":0,` +
		`"emu.sanck.elided":0,"emu.sanck.traps":0,` +
		`"emu.snapshot.restore_pages":0,"emu.snapshot.restores":0,` +
		`"emu.tb.hits":0,"emu.tb.misses":0,"emu.translate.insts":0},` +
		`"gauges":{},"histograms":{}}` + "\n"
	if got := string(m.Metrics().JSON()); got != want {
		t.Errorf("fresh machine registry:\n got %s\nwant %s", got, want)
	}
}
