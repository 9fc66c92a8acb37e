package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSyncRegistryConcurrent hammers a SyncRegistry from writer
// goroutines (the monitor's campaign callbacks) while readers scrape
// OpenMetrics or snapshot under Do — the exact shape `embsan monitor` runs
// under.
// Run with -race; the tier-1 suite does.
func TestSyncRegistryConcurrent(t *testing.T) {
	s := NewSyncRegistry()
	const writers, readers, rounds = 4, 3, 500

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("monitor.campaign.%d.execs", w)
			for i := 0; i < rounds; i++ {
				s.Do(func(r *Registry) {
					r.Counter("monitor.samples").Inc()
					r.Gauge(name).Set(int64(i))
				})
			}
		}(w)
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 3 {
				case 0:
					s.Do(func(r *Registry) { _ = r.Text() })
				case 1:
					s.Do(func(r *Registry) { _ = r.JSON() })
				default:
					if om := s.OpenMetrics(); !bytes.HasSuffix(om, []byte("# EOF\n")) {
						t.Error("scrape missing # EOF")
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	var total uint64
	s.Do(func(r *Registry) { total = r.Counter("monitor.samples").Value() })
	if total != writers*rounds {
		t.Fatalf("monitor.samples = %d, want %d", total, writers*rounds)
	}
	var text string
	s.Do(func(r *Registry) { text = r.Text() })
	if !strings.Contains(text, "monitor.campaign.0.execs") {
		t.Fatal("gauge missing from snapshot")
	}
	if !bytes.Contains(s.OpenMetrics(), []byte("monitor_campaign_0_execs")) {
		t.Fatal("gauge missing from scrape")
	}
}
