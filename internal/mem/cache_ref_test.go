package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the scan-based cache model — linear tag probe, linear
// least-lastUsed victim scan over [][]refLine — that Cache used before its
// banks were rebuilt around an index and recency lists. It is kept verbatim
// as the oracle: Cache must agree with it access for access.
type refLine struct {
	tag      uint64
	valid    bool
	dirty    bool
	lastUsed int64
}

type refBank struct {
	stats    CacheStats
	nextFree int64
	lines    [][]refLine
}

type refCache struct {
	sets       int
	ways       int
	numBanks   int
	lineBits   uint
	hitLatency int64
	writeBack  bool
	lower      Level
	throughput int64
	banks      []refBank
}

// newRefCache mirrors c's geometry (so NewCache's clamping is shared) above
// its own lower level.
func newRefCache(c *Cache, lower Level) *refCache {
	r := &refCache{
		sets: c.sets, ways: c.ways, numBanks: c.numBanks, lineBits: c.lineBits,
		hitLatency: c.hitLatency, writeBack: c.writeBack, lower: lower,
		throughput: 1,
	}
	r.banks = make([]refBank, r.numBanks)
	for b := range r.banks {
		nLocal := (r.sets - b + r.numBanks - 1) / r.numBanks
		r.banks[b].lines = make([][]refLine, nLocal)
		for i := range r.banks[b].lines {
			r.banks[b].lines[i] = make([]refLine, r.ways)
		}
	}
	return r
}

func (c *refCache) Reset() {
	for b := range c.banks {
		bank := &c.banks[b]
		for i := range bank.lines {
			for j := range bank.lines[i] {
				bank.lines[i][j] = refLine{}
			}
		}
		bank.stats = CacheStats{}
		bank.nextFree = 0
	}
}

func (c *refCache) setAndTag(addr uint64) (int, uint64) {
	line := addr >> c.lineBits
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

func (c *refCache) BankOf(addr uint64) int {
	setIdx, _ := c.setAndTag(addr)
	return setIdx % c.numBanks
}

func (c *refCache) bankAccess(b *refBank, addr uint64, write bool, now int64) access {
	b.stats.Accesses++
	// Port occupancy: requests serialize through the bank's port.
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	b.nextFree = start + c.throughput

	setIdx, tag := c.setAndTag(addr)
	set := b.lines[setIdx/c.numBanks]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			b.stats.Hits++
			set[i].lastUsed = start
			done := start + c.hitLatency
			b.stats.LatencySum += uint64(done - now)
			if write && !c.writeBack && c.lower != nil {
				// Write-through: forward the write but do not stall the
				// core on the lower level (posted write).
				return access{done: done, post: true, downAddr: addr, downAt: start + c.hitLatency}
			}
			if write && c.writeBack {
				set[i].dirty = true
			}
			return access{done: done}
		}
	}
	b.stats.Misses++
	if write && !c.writeBack {
		// Write-through, no-write-allocate: the write goes straight down.
		done := start + c.hitLatency
		b.stats.LatencySum += uint64(done - now)
		if c.lower != nil {
			return access{done: done, post: true, downAddr: addr, downAt: start}
		}
		return access{done: done}
	}
	// Miss: fetch from below and fill. The line is inserted now (victim
	// selection included); its availability is the fill's completion.
	out := access{fill: true, downAddr: addr, downAt: start + c.hitLatency}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUsed < set[victim].lastUsed {
			victim = i
		}
	}
	if set[victim].valid {
		b.stats.Evictions++
		if set[victim].dirty && c.lower != nil {
			// Write back the victim; posted, does not extend the fill.
			out.victimAddr = (set[victim].tag*uint64(c.sets) + uint64(setIdx)) << c.lineBits
			out.victimWB = true
		}
	}
	set[victim] = refLine{tag: tag, valid: true, dirty: write && c.writeBack, lastUsed: start}
	if c.lower == nil {
		// Nothing below: the "fill" completes at the hit latency.
		out.fill = false
		out.done = start + c.hitLatency
		out.victimWB = false
		b.stats.LatencySum += uint64(out.done - now)
	}
	return out
}

func (c *refCache) Access(addr uint64, write bool, now int64) int64 {
	b := &c.banks[c.BankOf(addr)]
	a := c.bankAccess(b, addr, write, now)
	if a.fill {
		fillDone := c.lower.Access(a.downAddr, false, a.downAt)
		b.stats.LatencySum += uint64(fillDone - now)
		if a.victimWB {
			c.lower.Access(a.victimAddr, true, fillDone)
		}
		return fillDone
	}
	if a.post {
		c.lower.Access(a.downAddr, true, a.downAt)
	}
	return a.done
}

// cacheGeom is one NewCache geometry under comparison (64-byte lines).
type cacheGeom struct {
	lines, ways, banks int
	writeBack          bool
}

func (g cacheGeom) String() string {
	return fmt.Sprintf("%dlines/%dways/%dbanks/wb=%v", g.lines, g.ways, g.banks, g.writeBack)
}

// cacheOp is one step of a comparison stream: an access, or a Reset.
type cacheOp struct {
	addr  uint64
	write bool
	now   int64
	reset bool
}

// checkAgainstReference replays ops through Cache and refCache twice over —
// once through bankAccess, comparing every outcome field, and once through
// Access above a private DRAM each, comparing completion cycles and what the
// lower level saw — and compares per-bank statistics after every Reset and
// at the end.
func checkAgainstReference(t *testing.T, g cacheGeom, ops []cacheOp) {
	t.Helper()
	newPair := func() (*Cache, *refCache, *DRAM, *DRAM) {
		dc, dr := NewDRAM(4, 64, 100, 4), NewDRAM(4, 64, 100, 4)
		c := NewCache("c", g.lines*64, 64, g.ways, 3, g.writeBack, dc, g.banks)
		return c, newRefCache(c, dr), dc, dr
	}
	sameStats := func(what string, i int, c *Cache, r *refCache) {
		t.Helper()
		for b := range r.banks {
			if got, want := c.BankStats(b), r.banks[b].stats; got != want {
				t.Fatalf("%v: %s: op %d: bank %d stats %+v, reference %+v", g, what, i, b, got, want)
			}
			if got, want := c.banks[b].nextFree, r.banks[b].nextFree; got != want {
				t.Fatalf("%v: %s: op %d: bank %d nextFree %d, reference %d", g, what, i, b, got, want)
			}
		}
	}
	bc, br, _, _ := newPair() // driven through bankAccess
	ac, ar, dc, dr := newPair()
	for i, op := range ops {
		if op.reset {
			sameStats("bankAccess", i, bc, br)
			sameStats("Access", i, ac, ar)
			bc.Reset()
			br.Reset()
			ac.Reset()
			ar.Reset()
			continue
		}
		bank := bc.BankOf(op.addr)
		if rb := br.BankOf(op.addr); bank != rb {
			t.Fatalf("%v: op %d: addr %#x routed to bank %d, reference %d", g, i, op.addr, bank, rb)
		}
		var got access
		bc.bankAccess(&bc.banks[bank], op.addr, op.write, op.now, &got)
		want := br.bankAccess(&br.banks[bank], op.addr, op.write, op.now)
		if got != want {
			t.Fatalf("%v: op %d (%#x write=%v now=%d): outcome %+v, reference %+v",
				g, i, op.addr, op.write, op.now, got, want)
		}
		if gd, wd := ac.Access(op.addr, op.write, op.now), ar.Access(op.addr, op.write, op.now); gd != wd {
			t.Fatalf("%v: op %d (%#x write=%v now=%d): Access done %d, reference %d",
				g, i, op.addr, op.write, op.now, gd, wd)
		}
	}
	sameStats("bankAccess", len(ops), bc, br)
	sameStats("Access", len(ops), ac, ar)
	for ch := 0; ch < dc.NumBanks(); ch++ {
		if got, want := dc.BankStats(ch), dr.BankStats(ch); got != want {
			t.Fatalf("%v: DRAM channel %d saw %+v, reference %+v", g, ch, got, want)
		}
	}
}

// randomCacheOps draws a read/write stream over a working set three times
// the cache, half of it aimed at a hot eighth so that hits, LRU reorderings
// and evictions all occur; arrival cycles wander forwards and backwards
// (lower-level jobs arrive out of order), with one Reset mid-stream.
func randomCacheOps(rng *rand.Rand, lines, n int) []cacheOp {
	ops := make([]cacheOp, 0, n+1)
	span := 3 * lines
	hot := span/8 + 1
	now := int64(0)
	for i := 0; i < n; i++ {
		if i == n/2 {
			ops = append(ops, cacheOp{reset: true})
			now = 0
		}
		line := rng.Intn(span)
		if rng.Intn(2) == 0 {
			line = rng.Intn(hot)
		}
		now += int64(rng.Intn(6)) - 1
		if now < 0 {
			now = 0
		}
		// Offsets inside the line must not matter.
		ops = append(ops, cacheOp{addr: uint64(line)*64 + uint64(rng.Intn(64)),
			write: rng.Intn(4) == 0, now: now})
	}
	return ops
}

// TestCacheMatchesReferenceLRU pins the exactness of the bank, under both
// lookups: over seeded random streams on direct-mapped, 8-way, 16-way x 8
// banks, scanWays-way, 2*scanWays-way and fully-associative 256-line
// geometries, write-through and write-back, every access outcome, every
// per-bank counter and every completion cycle must equal the scan-based
// reference's. The indexed geometries are also fed lines that all share one
// bucket of bank 0's index, so every lookup and eviction walks a chain
// through every resident line.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, g := range []cacheGeom{
		{lines: 64, ways: 0, banks: 1},
		{lines: 8 * scanWays, ways: 2 * scanWays, banks: 2},
	} {
		c := NewCache("c", g.lines*64, 64, g.ways, 3, false, nil, g.banks)
		b := &c.banks[0]
		if b.heads == nil {
			t.Fatalf("%v: bank 0 is not indexed", g)
		}
		// Three times the bank's slots, so the stream evicts.
		var bucket []uint64
		for l := uint64(0); len(bucket) < 3*len(b.tags); l++ {
			if c.BankOf(l*64) == 0 && b.home(l) == b.home(0) {
				bucket = append(bucket, l)
			}
		}
		for _, wb := range []bool{false, true} {
			g.writeBack = wb
			ops := randomCacheOps(rand.New(rand.NewSource(4)), len(bucket)/3, 20000)
			for i := range ops {
				if !ops[i].reset {
					ops[i].addr = bucket[ops[i].addr/64]*64 + ops[i].addr%64
				}
			}
			checkAgainstReference(t, g, ops)
		}
	}
	for _, g := range []cacheGeom{
		{lines: 64, ways: 1, banks: 1},
		{lines: 64, ways: 1, banks: 4},
		{lines: 64, ways: 8, banks: 1},
		{lines: 1024, ways: 16, banks: 8},
		{lines: 8 * scanWays, ways: scanWays, banks: 2},     // the widest scanned set
		{lines: 8 * scanWays, ways: 2 * scanWays, banks: 2}, // indexed, just past it
		{lines: 256, ways: 0, banks: 1},                     // Table 4's fully-associative L1D
		{lines: 96, ways: 4, banks: 5},                      // non-power-of-two sets and banks
	} {
		for _, wb := range []bool{false, true} {
			g.writeBack = wb
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				checkAgainstReference(t, g, randomCacheOps(rng, g.lines, 20000))
			}
		}
	}
}

// FuzzCacheAccess lets the fuzzer pick the geometry and the stream: three
// bytes per op — two select the line, the third carries the write flag, the
// arrival-cycle step and (0xFF) a Reset. Set widths run from 1 to
// 2*scanWays, so both lookups are always in range.
func FuzzCacheAccess(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), false, []byte{1, 0, 0, 1, 0, 4, 2, 0, 1})
	f.Add(uint8(7), uint8(3), uint8(1), true, []byte{0, 0, 0, 9, 0, 0, 0xFF, 0xFF, 0xFF, 0, 0, 1})
	f.Add(uint8(255), uint8(0), uint8(0), true, []byte("a fully associative set under churn"))
	churn := make([]byte, 0, 3*200) // 200 reads over 102 lines, each set evicting
	for i := 0; i < 200; i++ {
		churn = append(churn, byte(i*37), 0, 5)
	}
	f.Add(uint8(scanWays), uint8(1), uint8(1), false, churn) // the narrowest indexed set
	f.Fuzz(func(t *testing.T, ways, sets, banks uint8, writeBack bool, data []byte) {
		g := cacheGeom{ways: 1 + int(ways)%(2*scanWays), banks: 1 + int(banks)%8, writeBack: writeBack}
		g.lines = g.ways * (1 + int(sets)%16)
		var ops []cacheOp
		now := int64(0)
		for ; len(data) >= 3; data = data[3:] {
			if data[2] == 0xFF {
				ops = append(ops, cacheOp{reset: true})
				now = 0
				continue
			}
			line := (int(data[0]) | int(data[1])<<8) % (3 * g.lines)
			now += int64(data[2] >> 2 & 7)
			if data[2]&0x80 != 0 && now > 0 {
				now--
			}
			ops = append(ops, cacheOp{addr: uint64(line) * 64, write: data[2]&3 == 0, now: now})
		}
		checkAgainstReference(t, g, ops)
	})
}

// TestBankPortMonotone is the "port nextFree is monotone" conservation law:
// every request starts strictly after the previous request on its bank
// (which the exact-LRU argument needs: use times never tie) and leaves the
// port busy until start + portOccupancy — whatever order arrival cycles come
// in, and across a hierarchy driven by synchronous accesses and drain
// flushes alternately.
func TestBankPortMonotone(t *testing.T) {
	if portOccupancy < 1 {
		t.Fatalf("portOccupancy = %d, the recency list needs >= 1", portOccupancy)
	}
	// One bank at a time, with the service start recovered from the outcome.
	c := NewCache("c", 64*64, 64, 4, 3, true, NewDRAM(1, 64, 10, 1), 4)
	rng := rand.New(rand.NewSource(5))
	lastStart := make([]int64, c.NumBanks())
	for i := range lastStart {
		lastStart[i] = -1
	}
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(200)) * 64
		bi := c.BankOf(addr)
		b := &c.banks[bi]
		var a access
		c.bankAccess(b, addr, rng.Intn(3) == 0, int64(rng.Intn(400)), &a)
		start := a.done - c.hitLatency
		if a.fill {
			start = a.downAt - c.hitLatency
		}
		if start <= lastStart[bi] {
			t.Fatalf("access %d: bank %d started at %d, not after %d", i, bi, start, lastStart[bi])
		}
		if b.nextFree != start+portOccupancy {
			t.Fatalf("access %d: bank %d nextFree %d, want start %d + %d", i, bi, b.nextFree, start, portOccupancy)
		}
		lastStart[bi] = start
	}

	// A whole hierarchy: after every step each port has moved forward by at
	// least its occupancy per request it served, and never backwards.
	h := buildHier(3, 4, 4)
	type port struct {
		nextFree *int64
		accesses *uint64
		occ      int64
	}
	var ports []port
	for _, c := range append(append([]*Cache{}, h.l1s...), h.l2) {
		for b := range c.banks {
			ports = append(ports, port{&c.banks[b].nextFree, &c.banks[b].stats.Accesses, portOccupancy})
		}
	}
	for ch := range h.dram.chans {
		ports = append(ports, port{&h.dram.chans[ch].nextFree, &h.dram.chans[ch].stats.Accesses, h.dram.Occupancy})
	}
	prevFree := make([]int64, len(ports))
	prevAcc := make([]uint64, len(ports))
	for step := 0; step < 200; step++ {
		now := int64(step * 7)
		if step%3 == 0 {
			h.l1s[rng.Intn(len(h.l1s))].Access(uint64(rng.Intn(400))*64, rng.Intn(4) == 0, now)
		} else {
			genRequests(h, int64(step), 1+rng.Intn(6))
			h.drain.Flush(now, nil)
		}
		for i, p := range ports {
			served := int64(*p.accesses - prevAcc[i])
			if *p.nextFree < prevFree[i]+served*p.occ {
				t.Fatalf("step %d: port %d served %d requests but nextFree went %d -> %d",
					step, i, served, prevFree[i], *p.nextFree)
			}
			prevFree[i], prevAcc[i] = *p.nextFree, *p.accesses
		}
	}
}
