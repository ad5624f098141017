package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

const (
	schemaName = "ilsim-bench/1"
	// defaultSeconds is run_seconds in BENCHMARK.json.
	defaultSeconds = 12
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is one workload measured once: the unit of the result files.
type runReport struct {
	Workload   string     `json:"workload"`
	Provenance provenance `json:"provenance"`
	Seconds    float64    `json:"seconds"`
	Trace      bool       `json:"trace"`
	Quick      bool       `json:"quick"`
	// Ops counts every simulation job executed and checked, set-up and
	// warm-up included; OpsFailed those that did not come back correct.
	Ops       int `json:"ops"`
	OpsFailed int `json:"ops_failed"`
	// StatsSHA hashes the reference fingerprint of every job of the
	// workload: equal between two commits exactly when they simulate the
	// same thing.
	StatsSHA string `json:"stats_sha"`
	// Walls are the timed iterations' walls in order, in seconds. With so
	// few samples only their median, minimum and maximum are printed.
	Walls []float64 `json:"walls_s"`
	// Metrics holds the end-to-end metrics of an untraced run and the
	// per-layer metrics of a traced one.
	Metrics map[string]value `json:"metrics"`
}

// resultFile is the one schema of every file -out writes.
type resultFile struct {
	Schema string `json:"schema"`
	// Claim is what the commit under test says it improved. The benchmark
	// itself claims nothing.
	Claim      *string      `json:"claim"`
	Provenance provenance   `json:"provenance"`
	Runs       []*runReport `json:"runs"`
}

// loopResult is what one workload's set-ups and timed loop produced.
type loopResult struct {
	inst *instance
	// setupS, walls and rates have one sample per set-up and per timed
	// iteration; an end-to-end metric is the median of its samples.
	setupS, walls, rates []float64
	// tracedWalls and untracedWalls split walls by whether the tracer was
	// on: a traced run switches it off on every other iteration.
	tracedWalls, untracedWalls []float64
	allocMB                    float64
	spans                      []span
}

// runLoop sets the workload up e.sz.setups times (once when tracing, which
// reports no setup_s) and runs its closed loop, one iteration at a time,
// until seconds of timed iterations have passed.
func runLoop(e *env, def workloadDef, seconds float64) (*loopResult, error) {
	l := &loopResult{}
	setups := e.sz.setups
	if e.tr != nil {
		setups = 1
	}
	for k := 0; k < setups; k++ {
		end := e.tr.begin(spanSetup)
		t0 := time.Now()
		inst, err := def.setup(e)
		l.setupS = append(l.setupS, time.Since(t0).Seconds())
		end()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		l.inst = inst
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for elapsed := 0.0; elapsed < seconds || len(l.walls) < e.sz.minIters; {
		traced := e.tr != nil && len(l.walls)%2 == 0
		if e.tr != nil {
			e.tr.on, e.tr.iter = traced, len(l.walls)+1
		}
		end := e.tr.begin(spanIteration)
		t0 := time.Now()
		insts := l.inst.iterate()
		wall := time.Since(t0).Seconds()
		end()
		elapsed += wall
		l.walls = append(l.walls, wall)
		l.rates = append(l.rates, float64(insts)/wall)
		if traced {
			l.tracedWalls = append(l.tracedWalls, wall)
		} else {
			l.untracedWalls = append(l.untracedWalls, wall)
		}
	}
	runtime.ReadMemStats(&after)
	l.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(l.walls)) / (1 << 20)
	if e.tr != nil {
		l.spans = e.tr.spans
	}
	return l, nil
}

func (l *loopResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"siminsts_per_s": median(l.rates), "wall_s": median(l.walls), "setup_s": median(l.setupS),
	}
}

// hostAndSpans reports the traced workload's own per-layer metrics.
func (l *loopResult) hostAndSpans(m *metricSet) {
	m.put("host.alloc_mb_per_iter", l.allocMB)
	m.put("host.peak_rss_mb", peakRSSMB())
	m.put("host.warmup_s", l.inst.warmup.Seconds())
	m.put("host.tracing_overhead_frac", ratio(median(l.tracedWalls), median(l.untracedWalls))-1)
	shares := selfShares(l.spans)
	for _, name := range spanNames {
		m.put("span.self_frac."+name, shares[name])
	}
}

// measure runs one workload as asked: untraced for the end-to-end metrics,
// or traced — half of o.seconds in the workload's loop, then the ladder,
// whose rungs are fixed counts — for the per-layer ones.
func measure(def workloadDef, o options) (*runReport, []span, error) {
	prov := readProvenance(o.seed)
	e := &env{seed: o.seed, sz: fullSizes, nproc: prov.NProc, P: prov.P, tmp: scratchDir}
	if o.quick {
		e.sz = quickSizes
	}
	seconds := o.seconds
	if o.trace {
		e.tr, seconds = newTracer(), o.seconds/2
	}
	l, err := runLoop(e, def, seconds)
	if err != nil {
		return nil, nil, err
	}
	rep := &runReport{
		Workload: def.name, Provenance: prov, Seconds: o.seconds, Trace: o.trace, Quick: o.quick,
		StatsSHA: l.inst.sha, Walls: l.walls, Metrics: make(map[string]value),
	}
	if !o.trace {
		err = rep.put(endToEnd, l.endToEnd())
	} else {
		e.tr = nil // the ladder's calls are not the workload's
		m := newMetricSet()
		l.hostAndSpans(m)
		if err := runLadder(e, m); err != nil {
			return nil, nil, err
		}
		if len(m.dup) > 0 {
			return nil, nil, fmt.Errorf("per-layer metrics emitted twice: %v", m.dup)
		}
		err = rep.put(perLayer, m.vals)
	}
	if err != nil {
		return nil, nil, err
	}
	rep.Ops, rep.OpsFailed = e.ops, e.failed
	return rep, l.spans, nil
}

// put stores vals under their declared units; every declared metric must be
// there and nothing else.
func (r *runReport) put(defs []metricDef, vals map[string]float64) error {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = value{v, d.Unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := r.Metrics[name]; !ok {
				return fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return nil
}

func (r *runReport) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "# ilsim bench: workload=%s seed=%d seconds=%g trace=%t quick=%t\n",
		r.Workload, p.Seed, r.Seconds, r.Trace, r.Quick)
	fmt.Fprintf(w, "# host: cpu=%q nproc=%d gomaxprocs=%d P=%d go=%s commit=%s dirty=%t loadavg1=%.2f noisy=%t\n",
		p.CPU, p.NProc, p.GOMAXPROCS, p.P, p.GoVersion, p.Commit, p.Dirty, p.LoadAvg1, p.Noisy)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "%-14s %-46s %14.6g %s\n", r.Workload, name, v.Value, v.Unit)
	}
	s := sorted(r.Walls)
	fmt.Fprintf(w, "%-14s iterations=%d wall_min_s=%.4f wall_max_s=%.4f ops=%d ops_failed=%d stats_sha.%s=%s\n",
		r.Workload, len(s), s[0], s[len(s)-1], r.Ops, r.OpsFailed, r.Workload, r.StatsSHA)
}

// driverLine is the last line of a single-workload run.
func (r *runReport) driverLine() map[string]any {
	return map[string]any{
		"correct": r.OpsFailed == 0, "attempted": r.Ops, "failed": r.OpsFailed, "metrics": r.Metrics,
	}
}

// writeManifest prints BENCHMARK.json from the declarations in this package,
// so the file and the program cannot drift apart (the smoke test compares
// them).
func writeManifest(w io.Writer) error {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var m struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}
	m.Command, m.Paths, m.RunSeconds = []string{"bash", "bench/run.sh"}, []string{"bench"}, defaultSeconds
	for _, d := range workloadDefs {
		m.Workloads = append(m.Workloads, workload{d.name, d.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, metric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
