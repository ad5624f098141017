package main

import (
	"sort"
	"sync"
	"time"
)

// Span names: one per call from bench into a layer. The roots are the
// benchmark's own phases; a root's self time is the benchmark's overhead.
const (
	spanSetup       = "bench.setup"
	spanIteration   = "bench.iteration"
	spanPrepare     = "workloads.prepare"
	spanCoreSetup   = "core.setup"
	spanCoreRun     = "core.run"
	spanCheck       = "workloads.check"
	spanFingerprint = "stats.fingerprint"
	spanEngineRun   = "exp.engine_run"
	spanExpJob      = "exp.job"
	spanAssemble    = "report.assemble"
	spanMarkdown    = "report.markdown"
	spanCoordinator = "dist.coordinator_run"
	spanDistJob     = "dist.job"
)

// span is one timed call. Start and End are nanoseconds since the tracer
// was created; Parent indexes the span that caused it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iteration"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer, or
// one switched off, records nothing: end-to-end numbers are measured that
// way. begin/end are called from the benchmark's main goroutine only, which
// is what lets a stack supply the parent; add attaches a finished child,
// reported by a progress hook on another goroutine, to the span that is
// open at that moment.
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	iter  int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{on: true, epoch: time.Now()} }

func noop() {}

// begin opens a span under the innermost open one and returns the function
// that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil || !t.on {
		return noop
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: t.top(), Iter: t.iter})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[id].End = int64(time.Since(t.epoch))
		t.stack = t.stack[:len(t.stack)-1]
		t.mu.Unlock()
	}
}

// add records a finished child of the innermost open span.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil || !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)),
		End: int64(end.Sub(t.epoch)), Parent: t.top(), Iter: t.iter})
	t.mu.Unlock()
}

func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// selfTimes returns, per span, its duration minus the part of that interval
// its children cover. Children may overlap one another (jobs on two workers)
// or stick out of the parent (a job's wall is measured on the worker), so the
// covered part is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfShares sums self time by span name over the spans of timed iterations
// and divides by the iterations' total duration: where an iteration's wall
// goes, layer by layer. Shares of spans that run one at a time sum to 1;
// jobs on concurrent workers each count in full, so exp.job and dist.job
// read as the average number of busy workers.
func selfShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	// A span belongs to a timed iteration when its root is one.
	root := func(i int) int {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return i
	}
	var total int64
	byName := make(map[string]int64)
	for i, s := range spans {
		r := root(i)
		if spans[r].Name != spanIteration {
			continue
		}
		if i == r {
			total += s.End - s.Start
		}
		byName[s.Name] += self[i]
	}
	out := make(map[string]float64, len(byName))
	for name, ns := range byName {
		if total > 0 {
			out[name] = float64(ns) / float64(total)
		}
	}
	return out
}
