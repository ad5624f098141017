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
