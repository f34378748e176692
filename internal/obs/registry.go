package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Registry is a named-metric registry. Counters and gauges are
// pull-based: producers register a closure over their existing
// counter fields and the registry polls them at Snapshot time, so
// registering metrics adds no work to any hot path. Histograms are
// push-based but allocation-free to record into.
//
// Several sources may register under the same counter name; Snapshot
// sums them. That is how the harness aggregates many per-cell buffer
// pools into one "buffer.gets" figure, while a single-tree registry
// (one source per name) reproduces the legacy per-struct counters
// exactly. Gauges do not sum; the last registered source wins.
//
// Registration and Snapshot are mutex-guarded so a registry may be
// shared across harness worker goroutines; the Histogram handles that
// Histogram() returns are safe for concurrent Record (per-P striped).
type Registry struct {
	mu       sync.Mutex
	counters map[string][]func() uint64
	gauges   map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string][]func() uint64),
		gauges:   make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter registers fn as a source of the named counter.
func (r *Registry) Counter(name string, fn func() uint64) {
	r.mu.Lock()
	r.counters[name] = append(r.counters[name], fn)
	r.mu.Unlock()
}

// Gauge registers fn as the source of the named gauge, replacing any
// previous source.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every registered metric,
// JSON-marshalable and stable under iteration via Names.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot polls every source and returns the assembled values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Counters: make(map[string]uint64, len(r.counters))}
	for name, fns := range r.counters {
		var v uint64
		for _, fn := range fns {
			v += fn()
		}
		s.Counters[name] = v
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, fn := range r.gauges {
			s.Gauges[name] = fn()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			if h.Count() > 0 {
				s.Histograms[name] = h.Snapshot()
			}
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Fprint renders the snapshot as aligned text, one metric per line in
// name order (counters, then gauges, then histogram summaries).
func (s Snapshot) Fprint(w io.Writer) {
	width := 0
	each := func(names []string) []string {
		sort.Strings(names)
		for _, n := range names {
			if len(n) > width {
				width = len(n)
			}
		}
		return names
	}
	cn := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		cn = append(cn, n)
	}
	gn := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		gn = append(gn, n)
	}
	hn := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hn = append(hn, n)
	}
	cn, gn, hn = each(cn), each(gn), each(hn)
	for _, n := range cn {
		fmt.Fprintf(w, "%-*s  %d\n", width, n, s.Counters[n])
	}
	for _, n := range gn {
		fmt.Fprintf(w, "%-*s  %g\n", width, n, s.Gauges[n])
	}
	for _, n := range hn {
		h := s.Histograms[n]
		fmt.Fprintf(w, "%-*s  count=%d mean=%.1f min=%d max=%d p50=%d p99=%d\n",
			width, n, h.Count, h.Mean(), h.Min, h.Max, h.Quantile(0.50), h.Quantile(0.99))
	}
}
