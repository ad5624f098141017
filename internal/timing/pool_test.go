package timing

import (
	"runtime"
	"testing"
	"time"
)

// TestPoolEpochsAcrossParks drives task epochs through every state a helper
// can wait in — tight spin, yielding spin, parked — and checks the barrier's
// contract: every index of an epoch runs exactly once, all of them before
// runTasks returns, whatever width is asked for. The pauses are longer than
// the spin budget, so the helpers are asleep when the next burst starts.
func TestPoolEpochsAcrossParks(t *testing.T) {
	before := runtime.NumGoroutine()
	p := newPool(nil, 1, 4)
	if len(p.helpers) != 3 {
		t.Fatalf("a 4-wide pool has %d helpers, want 3 (the caller is the fourth worker)", len(p.helpers))
	}
	const n = 37
	// Plain counters: under -race the barrier itself has to order a
	// worker's write before the caller's read, and the next epoch's write
	// after it.
	var hits [n]int32
	fn := func(i int) { hits[i]++ }
	epochs := 0
	for burst := 0; burst < 6; burst++ {
		for k := 0; k < 500; k++ {
			workers := 1 + (burst+k)%5 // 5 exceeds the pool: clamped
			p.runTasks(n, fn, workers)
			epochs++
			for i := range hits {
				if got := hits[i]; got != int32(epochs) {
					t.Fatalf("burst %d epoch %d (%d workers): task %d ran %d times in %d epochs",
						burst, k, workers, i, got, epochs)
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	allParked := func() bool {
		for _, h := range p.helpers {
			if !h.parked.Load() {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !allParked() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !allParked() {
		t.Error("helpers still spinning seconds after the last epoch")
	}
	p.stop()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after stop, %d before the pool: helpers did not exit", got, before)
	}
}

// BenchmarkPoolEpoch is the barrier's own cost: an empty task epoch on a
// two-wide pool, back to back (helpers spinning) and with a pause between
// epochs that lets the helper park first.
func BenchmarkPoolEpoch(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pause time.Duration
	}{{"hot", 0}, {"parked", 200 * time.Microsecond}} {
		b.Run(bc.name, func(b *testing.B) {
			p := newPool(nil, 1, 2)
			defer p.stop()
			fn := func(int) {}
			var in time.Duration
			for i := 0; i < b.N; i++ {
				if bc.pause > 0 {
					time.Sleep(bc.pause)
				}
				t0 := time.Now()
				p.runTasks(2, fn, 2)
				in += time.Since(t0)
			}
			b.ReportMetric(float64(in.Nanoseconds())/float64(b.N), "ns/epoch")
		})
	}
}
