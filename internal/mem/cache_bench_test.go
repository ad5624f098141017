package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkBankAccess times one bank access (ns/op) under each lookup, scan
// and index, over sets of 1 to 256 ways, on Table 4's L2 footprint (512 KB
// in 8 banks) cut into sets of that width. The hit stream revisits the
// resident lines in a shuffled order; the miss stream draws lines never
// resident, so every access evicts its set's LRU line. Where the two lookups
// cross is scanWays.
func BenchmarkBankAccess(b *testing.B) {
	const lines, banks = 8192, 8
	for _, stream := range []string{"hit", "miss"} {
		for _, ways := range []int{1, 4, 8, 16, 32, 64, 256} {
			for _, lookup := range []string{"scan", "index"} {
				b.Run(fmt.Sprintf("%s/ways=%d/%s", stream, ways, lookup), func(b *testing.B) {
					c := NewCache("c", lines*LineSize, LineSize, ways, 1, false, NewDRAM(1, LineSize, 1, 1), banks)
					for i := range c.banks {
						c.banks[i] = newCacheBank(len(c.banks[i].sets), ways, lookup == "index")
					}
					var out access
					access := func(line uint64, now int) {
						addr := line * LineSize
						c.bankAccess(&c.banks[c.BankOf(addr)], addr, false, int64(now), &out)
					}
					order := rand.New(rand.NewSource(1)).Perm(lines)
					for i, l := range order {
						access(uint64(l), i)
					}
					b.ResetTimer()
					if stream == "hit" {
						for i := 0; i < b.N; i++ {
							access(uint64(order[i%lines]), i)
						}
					} else {
						// An odd multiplier permutes the 32-bit numbers, so no
						// line repeats and none is one of the resident ones.
						for i := 0; i < b.N; i++ {
							access(lines+uint64(uint32(i)*0x9E3779B1), i)
						}
					}
					b.StopTimer()
					s := c.Stats()
					if stream == "hit" && s.Hits != uint64(b.N) || stream == "miss" && s.Hits != 0 {
						b.Fatalf("%s stream of %d accesses: %+v", stream, b.N, s)
					}
				})
			}
		}
	}
}

// table4Drain builds Table 4's hierarchy behind one request buffer, the
// timing core's shape: eight fully-associative 16 KB write-through L1Ds
// (hit 16 cycles) over a 512 KB 16-way write-back L2 in 8 banks (hit 64)
// over 32 DRAM channels (latency 160, occupancy 4). It returns the buffer's
// handle for each L1D, and the L1Ds.
func table4Drain() (*RequestBuffer, []int, *Drain, []*Cache) {
	dram := NewDRAM(32, LineSize, 160, 4)
	l2 := NewCache("L2", 512<<10, LineSize, 16, 64, true, dram, 8)
	buf := &RequestBuffer{}
	l1s := make([]*Cache, 8)
	dests := make([]int, len(l1s))
	for i := range l1s {
		l1s[i] = NewCache(fmt.Sprintf("L1D%d", i), 16<<10, LineSize, 0, 16, false, l2, 1)
		dests[i] = buf.Register(l1s[i])
	}
	return buf, dests, NewDrain(l1s, []DrainSource{{Buf: buf, Complete: func(int, int64) {}}}, l2, dram), l1s
}

// BenchmarkFlush times Drain.Flush per line (ns/line) through Table 4's
// hierarchy. Every flush carries one 16-line gather from each of the eight
// L1Ds. On the miss stream the lines are drawn from 4 MB, eight times the
// L2, so nearly every line misses the L1D and most miss the L2 as well
// (SpMV's gathers). On the hit stream each L1D's lines come from 64 of its
// own, which stay resident.
func BenchmarkFlush(b *testing.B) {
	const cus, perReq, flushes = 8, 16, 4096
	for _, stream := range []struct {
		name string
		line func(rng *rand.Rand, cu int) uint64
		// hits bounds the L1D hit rate of the timed flushes.
		hits func(rate float64) bool
	}{
		{"miss", func(rng *rand.Rand, _ int) uint64 { return uint64(rng.Intn(4 << 20 / LineSize)) },
			func(rate float64) bool { return rate < 0.05 }},
		{"hit", func(rng *rand.Rand, cu int) uint64 { return uint64(cu<<6 | rng.Intn(64)) },
			func(rate float64) bool { return rate == 1 }},
	} {
		b.Run(stream.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			reqs := make([][cus][perReq]uint64, flushes)
			for f := range reqs {
				for cu := range reqs[f] {
					for l := range reqs[f][cu] {
						reqs[f][cu][l] = 0x1_0000_0000 + stream.line(rng, cu)*LineSize
					}
				}
			}
			buf, dests, d, l1s := table4Drain()
			flush := func(i int) {
				for cu, dst := range dests {
					buf.Append(dst, reqs[i%flushes][cu][:], false, cu)
				}
				d.Flush(int64(4*i), nil)
			}
			for i := 0; i < flushes; i++ {
				flush(i)
			}
			var before CacheStats
			for _, c := range l1s {
				s := c.Stats()
				before.Merge(&s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flush(flushes + i)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cus*perReq), "ns/line")
			var after CacheStats
			for _, c := range l1s {
				s := c.Stats()
				after.Merge(&s)
			}
			if rate := float64(after.Hits-before.Hits) / float64(after.Accesses-before.Accesses); !stream.hits(rate) {
				b.Fatalf("%s stream: L1D hit rate %.3f", stream.name, rate)
			}
		})
	}
}
