package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is a monotonically increasing instrument. It is not synchronised:
// like everything else in this package, a counter is owned by one goroutine
// (one Machine, one scheduler worker).
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a point-in-time instrument.
type Gauge struct{ v int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v = v }

// Add adjusts the value.
func (g *Gauge) Add(d int64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Histogram is a fixed-bucket distribution: bounds are inclusive upper
// limits, with an implicit +Inf bucket at the end. Bounds are fixed at
// registration so merged snapshots line up bucket-for-bucket.
type Histogram struct {
	bounds []uint64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    uint64
	n      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Registry holds named instruments. Names follow the
// "<subsystem>.<object>.<metric>" scheme (e.g. "emu.tb.hits"); registration
// is idempotent, so instruments can be looked up again by name. Snapshots
// iterate names in sorted order, making every export byte-deterministic.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (bounds must be ascending).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{bounds: append([]uint64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
	r.hists[name] = h
	return h
}

// Counts is a snapshot of a registry's counters by name.
type Counts map[string]uint64

// Counts snapshots every registered counter.
func (r *Registry) Counts() Counts {
	out := make(Counts, len(r.counters))
	for n, c := range r.counters {
		out[n] = c.v
	}
	return out
}

// Sub returns the per-name difference c-base: the counts accumulated
// between two snapshots. A name absent from base counts from zero.
func (c Counts) Sub(base Counts) Counts {
	out := make(Counts, len(c))
	for n, v := range c {
		out[n] = v - base[n]
	}
	return out
}

func (r *Registry) sortedNames() (cs, gs, hs []string) {
	for n := range r.counters {
		cs = append(cs, n)
	}
	for n := range r.gauges {
		gs = append(gs, n)
	}
	for n := range r.hists {
		hs = append(hs, n)
	}
	sort.Strings(cs)
	sort.Strings(gs)
	sort.Strings(hs)
	return
}

// Text renders the stable text snapshot: one instrument per line, sorted by
// name within each instrument class.
func (r *Registry) Text() string {
	cs, gs, hs := r.sortedNames()
	var b strings.Builder
	for _, n := range cs {
		fmt.Fprintf(&b, "counter %s %d\n", n, r.counters[n].v)
	}
	for _, n := range gs {
		fmt.Fprintf(&b, "gauge %s %d\n", n, r.gauges[n].v)
	}
	for _, n := range hs {
		h := r.hists[n]
		fmt.Fprintf(&b, "hist %s count=%d sum=%d", n, h.n, h.sum)
		for i, bd := range h.bounds {
			fmt.Fprintf(&b, " le%d=%d", bd, h.counts[i])
		}
		fmt.Fprintf(&b, " inf=%d\n", h.counts[len(h.bounds)])
	}
	return b.String()
}

// JSON renders the snapshot as deterministic JSON (keys in sorted order;
// built by hand so no map iteration order leaks into the bytes).
func (r *Registry) JSON() []byte {
	cs, gs, hs := r.sortedNames()
	var b strings.Builder
	b.WriteString("{\"counters\":{")
	for i, n := range cs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", n, r.counters[n].v)
	}
	b.WriteString("},\"gauges\":{")
	for i, n := range gs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", n, r.gauges[n].v)
	}
	b.WriteString("},\"histograms\":{")
	for i, n := range hs {
		if i > 0 {
			b.WriteByte(',')
		}
		h := r.hists[n]
		fmt.Fprintf(&b, "%q:{\"count\":%d,\"sum\":%d,\"bounds\":[", n, h.n, h.sum)
		for j, bd := range h.bounds {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", bd)
		}
		b.WriteString("],\"counts\":[")
		for j, c := range h.counts {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", c)
		}
		b.WriteString("]}")
	}
	b.WriteString("}}\n")
	return []byte(b.String())
}

// Merge sums the instruments of srcs into a fresh registry: counters and
// histogram buckets add, gauges add (a merged gauge is the total across
// workers). Histograms with mismatched bounds keep the first registration's
// bounds and fold every sample through Observe-equivalent bucket addition
// only when the bounds agree; mismatches are summed into count/sum alone.
func Merge(srcs ...*Registry) *Registry {
	out := NewRegistry()
	for _, src := range srcs {
		if src == nil {
			continue
		}
		for n, c := range src.counters {
			out.Counter(n).Add(c.v)
		}
		for n, g := range src.gauges {
			out.Gauge(n).Add(g.v)
		}
		for n, h := range src.hists {
			dst := out.Histogram(n, h.bounds)
			dst.n += h.n
			dst.sum += h.sum
			if len(dst.counts) == len(h.counts) {
				for i := range h.counts {
					dst.counts[i] += h.counts[i]
				}
			}
		}
	}
	return out
}
