//go:build race

package core

// Under the race detector sync.Pool drops a quarter of what is put back, so
// the distiller's regexp matchers reallocate their state on every few
// matches: about 1.2 MiB more in the footprint test's window, none of it held
// by the deployment. The bound stays where it was before the shadow left
// the heap.
func init() { footprintLimit = 4 << 20 }
