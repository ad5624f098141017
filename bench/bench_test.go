package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func quickEnv(t *testing.T, seed int64) *env {
	t.Helper()
	return &env{seed: seed, sz: quickSizes, nproc: 2, P: 2, tmp: t.TempDir()}
}

// TestWorkloadsQuick runs every workload's set-up and loop at smoke-test
// size with the tracer on — the superset of the code paths, since a nil
// tracer only skips recording — and checks what each must report.
func TestWorkloadsQuick(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			e := quickEnv(t, 1)
			e.tr = newTracer()
			l, err := runLoop(e, def, 0)
			if err != nil {
				t.Fatal(err)
			}
			if e.ops == 0 || e.failed != 0 {
				t.Fatalf("ops=%d ops_failed=%d, want >0 and 0", e.ops, e.failed)
			}
			if l.inst.sha == "" {
				t.Error("no stats_sha")
			}
			rep := &runReport{Metrics: make(map[string]value)}
			if err := rep.put(endToEnd, l.endToEnd()); err != nil {
				t.Fatal(err)
			}
			for name, v := range rep.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}
			shares := selfShares(l.spans)
			if len(l.spans) == 0 || shares[spanIteration] <= 0 {
				t.Errorf("traced loop recorded %d spans, iteration share %v", len(l.spans), shares[spanIteration])
			}
		})
	}
}

// TestLadderQuick climbs the ladder once and checks that, with the traced
// workload's own metrics, it emits every declared per-layer metric exactly
// once; then that the same seed reproduces every sim.* value of the
// simulation rung.
func TestLadderQuick(t *testing.T) {
	e := quickEnv(t, 1)
	m := newMetricSet()
	e.tr = newTracer()
	l, err := runLoop(e, workloadDefs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	e.tr = nil
	l.hostAndSpans(m)
	if err := runLadder(e, m); err != nil {
		t.Fatal(err)
	}
	if len(m.dup) > 0 {
		t.Errorf("emitted twice: %v", m.dup)
	}
	rep := &runReport{Metrics: make(map[string]value)}
	if err := rep.put(perLayer, m.vals); err != nil {
		t.Error(err)
	}
	if e.failed != 0 {
		t.Errorf("ops_failed = %d", e.failed)
	}

	again := newMetricSet()
	if err := simRung(quickEnv(t, 1), again, nil); err != nil {
		t.Fatal(err)
	}
	n := 0
	for name, v := range again.vals {
		if strings.HasPrefix(name, "sim.") {
			n++
			if m.vals[name] != v {
				t.Errorf("%s: %v then %v with the same seed", name, m.vals[name], v)
			}
		}
	}
	if n != 24 {
		t.Errorf("simulation rung emitted %d sim.* metrics, want 24", n)
	}
}

// TestSeedReachesGeneratedInputs: equal seeds give equal streams and job
// sets, different seeds different ones.
func TestSeedReachesGeneratedInputs(t *testing.T) {
	a, b, c := genStreams(7, 1<<10).hash(), genStreams(7, 1<<10).hash(), genStreams(8, 1<<10).hash()
	if a != b || a == c {
		t.Errorf("stream hashes: seed 7 %s and %s, seed 8 %s", a, b, c)
	}
	labels := func(seed int64) string {
		jobs, err := sweepJobs(seed, 6)
		if err != nil {
			t.Fatal(err)
		}
		var s []string
		for _, j := range jobs {
			s = append(s, j.String())
		}
		return strings.Join(s, ";")
	}
	if labels(7) != labels(7) || labels(7) == labels(8) {
		t.Error("sweepJobs does not follow the seed")
	}
}

// TestManifest: BENCHMARK.json is what this package declares, within the
// contract's limits.
func TestManifest(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeManifest(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`")
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(m.EndToEnd), len(m.PerLayer))
	}
	name, unit := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`), regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %q (unit %q)", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}

func TestMedianQuartilesPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
	if p50, p99 := percentile(v, 50), percentile(v, 99); p50 != 5 || p99 != 10 {
		t.Errorf("percentiles = %v, %v, want 5, 10", p50, p99)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: spanIteration, Start: 0, End: 100, Parent: -1},
		{Name: spanEngineRun, Start: 10, End: 90, Parent: 0},
		// Two overlapping jobs, one starting before its parent.
		{Name: spanExpJob, Start: 5, End: 50, Parent: 1},
		{Name: spanExpJob, Start: 40, End: 70, Parent: 1},
		{Name: spanSetup, Start: 200, End: 300, Parent: -1},
	}
	self := selfTimes(spans)
	want := []int64{20, 20, 45, 30, 100}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
	shares := selfShares(spans)
	if shares[spanIteration] != 0.2 || shares[spanExpJob] != 0.75 || shares[spanSetup] != 0 {
		t.Errorf("shares = %v", shares)
	}

	var off *tracer
	off.begin("x")()
	off.add("y", time.Now(), time.Now())
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10, 7, 13, 9, 11, 10}
	for _, c := range []struct {
		name string
		a, b []float64
		want verdict
	}{
		{"same", base, shift(1.01), withinBound},
		{"faster", base, shift(0.8), improved},
		{"slower", base, shift(1.3), regressed},
		{"lost in noise", noisy, shift(1.05), unresolved},
	} {
		if got, _, _ := judge(c.a, c.b, false, 0.15); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got, _, _ := judge(base, shift(1.3), true, 0.15); got != improved {
		t.Errorf("higher-is-better: %s, want improved", got)
	}
}
