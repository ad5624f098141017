package mem

import "fmt"

// Level is a stage of the memory hierarchy that can service a line access.
// Access returns the cycle at which the requested line is available. now is
// the cycle the request arrives. Implementations update their own occupancy
// so that back-to-back requests queue realistically.
type Level interface {
	Access(addr uint64, write bool, now int64) (done int64)
}

// Banked is a hierarchy level whose state is partitioned into independent
// banks: requests to different banks touch disjoint port/LRU/counter state,
// so the drain replays each bank's requests as one sequence. Cache (set
// interleaving) and DRAM (channel interleaving) both implement it.
type Banked interface {
	NumBanks() int
	BankOf(addr uint64) int
}

// CacheStats counts cache activity.
type CacheStats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// LatencySum accumulates total access latency for mean-latency stats.
	LatencySum uint64
}

// Merge folds another shard's counters into s (bank shards sum linearly).
func (s *CacheStats) Merge(o *CacheStats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.LatencySum += o.LatencySum
}

// wayLink threads one slot into its set's recency list: prev/next are slot
// indices (noSlot ends the list).
type wayLink struct {
	prev, next int32 // towards more / less recently used
	dirty      bool
}

// cacheSet is one set's recency list and fill level. Lines only become
// invalid wholesale (Reset), so the valid ways of a set are always the
// prefix [0, used) and "first invalid way" is a counter, not a search.
type cacheSet struct {
	mru, lru int32 // list ends (noSlot when the set is empty)
	used     int32
}

const noSlot = -1

// scanWays is the widest set a bank searches by scanning its tags; a bank
// with wider sets keeps an index instead. In BenchmarkBankAccess a scan of
// the dense tag array beats the index on misses up to 16 ways; the 16-way
// L2 serves mostly misses, and on spmv_serial scanning it beats indexing it
// (DESIGN.md, "Banked structures").
const scanWays = 16

// portOccupancy is the cycles one request holds a bank's port. It must stay
// >= 1: each request then starts strictly later than the previous one on its
// bank, so per-bank use times never tie and a set's recency list is exactly
// its lines ordered by last use — which is what lets the list tail stand in
// for a least-lastUsed scan (see DESIGN.md, "Banked structures").
const portOccupancy = 1

// cacheBank is one set-interleaved partition of a cache: it owns the lines
// of every set s with s % numBanks == bank, a private request port and a
// private statistics shard, so two banks never share mutable state. Slots
// are laid out flat, local set s owning slots [s*ways, (s+1)*ways). Each set
// keeps its slots on an intrusive recency list, so LRU update and victim
// choice are O(1). How a line is found depends on the set's width: a bank of
// at most scanWays ways scans the set's filled tags and holds no index; a
// wider one (Table 4's fully-associative L1D) hashes the line to a bucket of
// a chained index whose chains run through the slots themselves.
type cacheBank struct {
	stats CacheStats
	// nextFree models the bank's single request port.
	nextFree int64
	// sets[local] is global set local*numBanks + bank.
	sets []cacheSet
	// tags[slot] is the resident line (addr >> lineBits), dense so that a
	// 16-way set scan reads 128 bytes; links[slot] is the slot's recency
	// links and dirty bit.
	tags  []uint64
	links []wayLink
	// heads[h] is the first slot of bucket h and chain[slot] the next slot
	// of slot's bucket (noSlot ends both); nil on a scanning bank.
	heads, chain []int32
	// shift turns a 64-bit line hash into a bucket number.
	shift uint
}

// newCacheBank builds a bank of nSets sets of ways ways; indexed chooses the
// lookup (NewCache: ways > scanWays).
func newCacheBank(nSets, ways int, indexed bool) cacheBank {
	b := cacheBank{
		sets:  make([]cacheSet, nSets),
		tags:  make([]uint64, nSets*ways),
		links: make([]wayLink, nSets*ways),
	}
	if indexed {
		// Twice as many buckets as slots: a miss walks half a slot on
		// average.
		bits := uint(1)
		for 1<<bits < 2*len(b.tags) {
			bits++
		}
		b.heads = make([]int32, 1<<bits)
		b.chain = make([]int32, len(b.tags))
		b.shift = 64 - bits
	}
	b.reset()
	return b
}

func (b *cacheBank) reset() {
	for i := range b.sets {
		b.sets[i] = cacheSet{mru: noSlot, lru: noSlot}
	}
	for i := range b.heads {
		b.heads[i] = noSlot
	}
	b.stats = CacheStats{}
	b.nextFree = 0
}

// home is line's bucket (Fibonacci hashing: set-strided line numbers still
// spread over the buckets).
func (b *cacheBank) home(line uint64) int {
	return int(line * 0x9E3779B97F4A7C15 >> b.shift)
}

// scan returns the slot of set slots [base, base+used) holding line, or
// noSlot.
func (b *cacheBank) scan(line uint64, base, used int32) int32 {
	for i, t := range b.tags[base : base+used] {
		if t == line {
			return base + int32(i)
		}
	}
	return noSlot
}

// find returns the slot the index holds line in, or noSlot.
func (b *cacheBank) find(line uint64) int32 {
	s := b.heads[b.home(line)]
	for s != noSlot && b.tags[s] != line {
		s = b.chain[s]
	}
	return s
}

// unlink takes slot, which holds line, out of line's bucket.
func (b *cacheBank) unlink(line uint64, slot int32) {
	p := &b.heads[b.home(line)]
	for *p != slot {
		p = &b.chain[*p]
	}
	*p = b.chain[slot]
}

// touch makes slot the most recently used line of set s.
func (b *cacheBank) touch(s *cacheSet, slot int32) {
	if s.mru == slot {
		return
	}
	w := &b.links[slot]
	// slot is not the MRU, so it has a prev.
	b.links[w.prev].next = w.next
	if w.next == noSlot {
		s.lru = w.prev
	} else {
		b.links[w.next].prev = w.prev
	}
	b.pushMRU(s, slot)
}

// pushMRU links an unlinked slot at the recent end of set s.
func (b *cacheBank) pushMRU(s *cacheSet, slot int32) {
	w := &b.links[slot]
	w.prev, w.next = noSlot, s.mru
	if s.mru == noSlot {
		s.lru = slot
	} else {
		b.links[s.mru].prev = slot
	}
	s.mru = slot
}

// access is the bank-local outcome of one request. Either the completion
// cycle is known immediately (done), or the request misses and must fill
// from the lower level (fill): the caller issues the lower-level read at
// downAt and the request completes when that read does. post marks a
// lower-level write that is posted (fired at downAt, never blocks the
// requester). fill and post are mutually exclusive; fill implies the cache
// has a lower level. On a fill the bank's LatencySum is NOT yet charged —
// the caller charges it once the fill's completion is known. A dirty victim
// evicted by the fill is reported via victimAddr/victimWB and must be
// written back (posted) at the fill's completion cycle.
type access struct {
	done       int64
	downAddr   uint64
	downAt     int64
	victimAddr uint64
	fill       bool
	post       bool
	victimWB   bool
}

// Cache is a set-associative, LRU cache timing model. Policies follow
// Table 4: write-through (no write-allocate) or write-back (write-allocate).
// Its sets are interleaved across numBanks independent banks (bank = set %
// numBanks), each with its own port, lines and statistics shard; banks=1
// reproduces the single-ported model exactly.
type Cache struct {
	Name       string
	sets       int // global set count, across all banks
	ways       int
	numBanks   int
	lineBits   uint
	hitLatency int64
	writeBack  bool
	lower      Level
	banks      []cacheBank
	// pow2 says the set and bank counts are both powers of two (every
	// Table 4 cache), so route masks and shifts instead of dividing.
	pow2      bool
	setMask   uint64
	bankShift uint
}

// NewCache builds a cache model. sizeBytes/lineSize/ways determine geometry;
// ways <= 0 means fully associative. banks is the set-interleave factor
// (clamped to [1, sets]); it changes port timing, not hit/miss behavior.
func NewCache(name string, sizeBytes, lineSize, ways int, hitLatency int64, writeBack bool, lower Level, banks int) *Cache {
	numLines := sizeBytes / lineSize
	if ways <= 0 || ways > numLines {
		ways = numLines // fully associative
	}
	sets := numLines / ways
	if sets == 0 {
		sets = 1
	}
	if banks < 1 {
		banks = 1
	}
	if banks > sets {
		banks = sets
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	c := &Cache{
		Name: name, sets: sets, ways: ways, numBanks: banks, lineBits: lineBits,
		hitLatency: hitLatency, writeBack: writeBack, lower: lower,
	}
	if sets&(sets-1) == 0 && banks&(banks-1) == 0 {
		c.pow2, c.setMask = true, uint64(sets-1)
		for 1<<c.bankShift < banks {
			c.bankShift++
		}
	}
	c.banks = make([]cacheBank, banks)
	for b := range c.banks {
		c.banks[b] = newCacheBank((sets-b+banks-1)/banks, ways, ways > scanWays)
	}
	return c
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for b := range c.banks {
		c.banks[b].reset()
	}
}

// SetHitLatency changes the hit latency; geometry is fixed at construction,
// so this is all a reused cache needs besides Reset to model another
// configuration of the same size.
func (c *Cache) SetHitLatency(cycles int64) { c.hitLatency = cycles }

// NumBanks returns the set-interleave factor.
func (c *Cache) NumBanks() int { return c.numBanks }

// BankOf returns the bank servicing addr.
func (c *Cache) BankOf(addr uint64) int {
	bank, _ := c.route(addr >> c.lineBits)
	return bank
}

// route returns the bank holding line's set and the set's index within
// that bank.
func (c *Cache) route(line uint64) (bank, local int) {
	if c.pow2 {
		set := line & c.setMask
		return int(set) & (c.numBanks - 1), int(set >> c.bankShift)
	}
	set := int(line % uint64(c.sets))
	return set % c.numBanks, set / c.numBanks
}

// Stats returns the cache's counters, merged across bank shards.
func (c *Cache) Stats() CacheStats {
	var s CacheStats
	for b := range c.banks {
		s.Merge(&c.banks[b].stats)
	}
	return s
}

// BankStats returns one bank's statistics shard.
func (c *Cache) BankStats(b int) CacheStats { return c.banks[b].stats }

// bankAccess services the bank-local part of one request on bank b: port
// arbitration, tag probe, LRU update, fill bookkeeping and victim selection.
// It never calls into the lower level; the outcome, written to out, tells the
// caller what lower-level traffic to issue, which is what lets the drain
// pipeline defer that traffic into the lower bank's own queue. out belongs to
// the caller and is overwritten whole, so the caller reads single fields of
// it instead of copying a returned struct.
func (c *Cache) bankAccess(b *cacheBank, addr uint64, write bool, now int64, out *access) {
	b.stats.Accesses++
	// Port occupancy: requests serialize through the bank's port.
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	b.nextFree = start + portOccupancy

	line := addr >> c.lineBits
	_, local := c.route(line)
	set := &b.sets[local]
	base := int32(local * c.ways)
	var slot int32
	if b.heads == nil {
		slot = b.scan(line, base, set.used)
	} else {
		slot = b.find(line)
	}
	if slot != noSlot {
		b.stats.Hits++
		b.touch(set, slot)
		done := start + c.hitLatency
		b.stats.LatencySum += uint64(done - now)
		if write && !c.writeBack && c.lower != nil {
			// Write-through: forward the write but do not stall the
			// core on the lower level (posted write).
			*out = access{done: done, post: true, downAddr: addr, downAt: start + c.hitLatency}
			return
		}
		if write && c.writeBack {
			b.links[slot].dirty = true
		}
		*out = access{done: done}
		return
	}
	b.stats.Misses++
	if write && !c.writeBack {
		// Write-through, no-write-allocate: the write goes straight down.
		done := start + c.hitLatency
		b.stats.LatencySum += uint64(done - now)
		if c.lower != nil {
			*out = access{done: done, post: true, downAddr: addr, downAt: start}
			return
		}
		*out = access{done: done}
		return
	}
	// Miss: fetch from below and fill. The line is inserted now (victim
	// selection included); its availability is the fill's completion.
	*out = access{fill: true, downAddr: addr, downAt: start + c.hitLatency}
	full := int(set.used) == c.ways
	slot = base + set.used
	if full {
		// Full set: the victim is the least recently used line.
		slot = set.lru
	}
	if full {
		victim := b.tags[slot]
		b.stats.Evictions++
		if b.links[slot].dirty && c.lower != nil {
			// Write back the victim; posted, does not extend the fill.
			out.victimAddr = victim << c.lineBits
			out.victimWB = true
		}
		if b.heads != nil {
			b.unlink(victim, slot)
		}
		b.touch(set, slot)
	} else {
		set.used++
		b.pushMRU(set, slot)
	}
	b.tags[slot] = line
	b.links[slot].dirty = write && c.writeBack
	if b.heads != nil {
		h := b.home(line)
		b.chain[slot], b.heads[h] = b.heads[h], slot
	}
	if c.lower == nil {
		// Nothing below: the "fill" completes at the hit latency.
		out.fill = false
		out.done = start + c.hitLatency
		out.victimWB = false
		b.stats.LatencySum += uint64(out.done - now)
	}
}

// Access services a line request synchronously and returns its completion
// cycle, descending into the lower level inline. The drain pipeline replays
// exactly this logic with the descent deferred; banks=1 callers see the
// pre-banking timing unchanged.
func (c *Cache) Access(addr uint64, write bool, now int64) int64 {
	b := &c.banks[c.BankOf(addr)]
	var a access
	c.bankAccess(b, addr, write, now, &a)
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

// String summarizes geometry for reports.
func (c *Cache) String() string {
	return fmt.Sprintf("%s: %d sets x %d ways x %dB x %d banks",
		c.Name, c.sets, c.ways, 1<<c.lineBits, c.numBanks)
}

// dramChan is one DRAM channel: an independent bank with its own occupancy
// tracking and statistics shard.
type dramChan struct {
	nextFree int64
	stats    CacheStats
}

// DRAM models a channeled memory: each channel is a resource with a fixed
// access latency and per-request occupancy (burst time), so bandwidth is
// bounded and contention queues requests (Table 4: DDR3, 32 channels).
// Channels are line-interleaved; each is an independent bank to the drain.
type DRAM struct {
	Latency   int64
	Occupancy int64
	lineBits  uint
	chans     []dramChan
	// chanMask is the channel count less one when that is a power of two
	// (Table 4's 32), so channel masks instead of dividing; else 0.
	chanMask uint64
}

// NewDRAM builds the DRAM model. lineSize sets the channel-interleave
// granularity (consecutive lines land on consecutive channels).
func NewDRAM(channels, lineSize int, latency, occupancy int64) *DRAM {
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	d := &DRAM{Latency: latency, Occupancy: occupancy, lineBits: lineBits,
		chans: make([]dramChan, channels)}
	if channels&(channels-1) == 0 {
		d.chanMask = uint64(channels - 1)
	}
	return d
}

// Reset clears channel state and statistics.
func (d *DRAM) Reset() {
	for i := range d.chans {
		d.chans[i] = dramChan{}
	}
}

// NumBanks returns the channel count.
func (d *DRAM) NumBanks() int { return len(d.chans) }

// BankOf returns the line-interleaved channel servicing addr.
func (d *DRAM) BankOf(addr uint64) int {
	line := addr >> d.lineBits
	if d.chanMask != 0 || len(d.chans) == 1 {
		return int(line & d.chanMask)
	}
	return int(line % uint64(len(d.chans)))
}

// Stats returns the DRAM's counters, merged across channel shards.
func (d *DRAM) Stats() CacheStats {
	var s CacheStats
	for i := range d.chans {
		s.Merge(&d.chans[i].stats)
	}
	return s
}

// BankStats returns one channel's statistics shard.
func (d *DRAM) BankStats(ch int) CacheStats { return d.chans[ch].stats }

// bankAccess services one request on channel ch (already routed).
func (d *DRAM) bankAccess(ch int, write bool, now int64) int64 {
	cn := &d.chans[ch]
	cn.stats.Accesses++
	start := now
	if cn.nextFree > start {
		start = cn.nextFree
	}
	cn.nextFree = start + d.Occupancy
	done := start + d.Latency
	if write {
		// Writes occupy the channel but complete immediately for the
		// requester (posted).
		done = start
	}
	cn.stats.LatencySum += uint64(done - now)
	return done
}

// Access services a line request on its address-interleaved channel.
func (d *DRAM) Access(addr uint64, write bool, now int64) int64 {
	return d.bankAccess(d.BankOf(addr), write, now)
}
