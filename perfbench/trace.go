package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span that
// caused it (0 for none); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// traceSampleEvery is the sampling rate of the closed-loop read loops: they
// run about a million reads in a traced run, so they record the spans of
// one read in this many, which keeps the spans of a run in the tens of
// megabytes.
const traceSampleEvery = 64

// sample returns t for the requests it traces and nil for the others.
func (t *tracer) sample(req int64) *tracer {
	if req%traceSampleEvery != 0 {
		return nil
	}
	return t
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count       int
	total, self time.Duration
}

// stats returns, per span name, the count, total time and self time: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*spanStats{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += time.Duration(d)
		st.self += time.Duration(d - covered(children[i+1], s.Start, s.End))
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// meanUS returns the mean duration of the spans named name, in µs.
func meanUS(st map[string]*spanStats, name string) float64 {
	s := st[name]
	if s == nil || s.count == 0 {
		return 0
	}
	return float64(s.total.Nanoseconds()) / float64(s.count) / 1e3
}

// printTable writes the per-name span summary.
func (t *tracer) printTable(w io.Writer, st map[string]*spanStats) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-36s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_us")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "  %-36s %9d %12.3f %12.3f %12.3f\n", n, s.count,
			float64(s.total.Microseconds())/1e3, float64(s.self.Microseconds())/1e3,
			float64(s.total.Nanoseconds())/float64(s.count)/1e3)
	}
}

// writeFile writes every span as JSON.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
