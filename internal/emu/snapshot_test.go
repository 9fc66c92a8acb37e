package emu

import "testing"

// TestRestorePostAllocFree: rewinding a machine and posting the next input
// allocates nothing, so a replay loop's cost does not include the mailbox.
func TestRestorePostAllocFree(t *testing.T) {
	m, err := New(loadImage(t, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Snapshot()
	input := []byte("fuzz input")
	if n := testing.AllocsPerRun(100, func() {
		m.Restore()
		m.Mailbox.Post(input)
	}); n != 0 {
		t.Errorf("Restore+Post allocates %v times per run, want 0", n)
	}
}
