package obs

import "sync"

// SyncRegistry wraps a Registry behind a mutex for the one place the
// observability layer is legitimately cross-goroutine: a live scrape
// endpoint (the monitor's /metrics) reading instruments that campaign
// callbacks bump from worker goroutines. Everything else in this package
// stays unsynchronised by ownership — a SyncRegistry is a view-side
// side channel, never part of a campaign's deterministic state.
//
// The API is deliberately closure-shaped: instrument handles never
// escape the lock, so there is no way to bump a counter outside it.
type SyncRegistry struct {
	mu sync.Mutex
	r  *Registry
}

// NewSyncRegistry creates an empty synchronised registry.
func NewSyncRegistry() *SyncRegistry {
	return &SyncRegistry{r: NewRegistry()}
}

// Do runs fn with the underlying registry under the lock. fn must not
// retain the registry or any instrument past its return.
func (s *SyncRegistry) Do(fn func(*Registry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.r)
}

// OpenMetrics renders the locked registry in the OpenMetrics text
// exposition — the monitor's scrape endpoint.
func (s *SyncRegistry) OpenMetrics() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.OpenMetrics()
}
