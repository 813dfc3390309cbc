package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op; a
// layer span's Parent is the index of its operation's root span.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	AllocB int64  `json:"alloc_bytes,omitempty"`

	withAlloc  bool
	allocStart int64
}

// tracer keeps one goroutine's spans in memory. A nil *tracer records
// nothing, so untraced code paths call the same methods.
type tracer struct {
	t0     time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocBytes() int64 {
	metrics.Read(t.sample)
	return int64(t.sample[0].Value.Uint64())
}

// begin opens a span and returns its index (-1 on a nil tracer). withAlloc
// also records the bytes the process allocated while the span was open,
// which is exact only while one goroutine runs the program.
func (t *tracer) begin(name string, op int64, parent int, withAlloc bool) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Op: op, Parent: parent, withAlloc: withAlloc}
	if withAlloc {
		s.allocStart = t.allocBytes()
	}
	s.Start = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = time.Since(t.t0).Nanoseconds()
	if s.withAlloc {
		s.AllocB = t.allocBytes() - s.allocStart
	}
}

// layer times fn as a child span of the operation root.
func (t *tracer) layer(name string, op int64, root int, fn func()) {
	i := t.begin(name, op, root, false)
	fn()
	t.end(i)
}

// layerAlloc is layer with allocation counting.
func (t *tracer) layerAlloc(name string, op int64, root int, fn func()) {
	i := t.begin(name, op, root, true)
	fn()
	t.end(i)
}

// totals sums span durations and allocations by name over the operations
// keep accepts, and counts the accepted operation roots (spans named "op").
func totals(ts []*tracer, keep func(op int64) bool) (dur map[string]time.Duration, alloc map[string]int64, ops int) {
	dur, alloc = map[string]time.Duration{}, map[string]int64{}
	for _, t := range ts {
		for _, s := range t.spans {
			if !keep(s.Op) {
				continue
			}
			if s.Name == "op" {
				ops++
			}
			dur[s.Name] += time.Duration(s.End - s.Start)
			alloc[s.Name] += s.AllocB
		}
	}
	return dur, alloc, ops
}

// spanCost measures what recording one span costs, with and without
// allocation counting, by recording spans into a scratch tracer.
func spanCost() (plain, withAlloc time.Duration) {
	const n = 20000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", int64(i), -1, false))
	}
	plain = time.Since(t0) / n
	t = newTracer()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", int64(i), -1, true))
	}
	withAlloc = time.Since(t0) / n
	return plain, withAlloc
}

// overheadPct is the share of the traced phase's busy time spent recording
// spans, from the measured cost of one span.
func overheadPct(ts []*tracer, busy time.Duration) float64 {
	plain, withAlloc := spanCost()
	var cost time.Duration
	for _, t := range ts {
		for _, s := range t.spans {
			if s.withAlloc {
				cost += withAlloc
			} else {
				cost += plain
			}
		}
	}
	return 100 * float64(cost) / float64(busy)
}

// writeSpans writes every span, one JSON object a line, to
// .bench_build/trace/<workload>-seed<n>.jsonl in the checkout.
func writeSpans(cfg *config, ts []*tracer) error {
	dir := mustMkdir(filepath.Join(cfg.outDir, "trace"))
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
