package mem

// lineReq is one routed line access sitting in a destination bank's bucket:
// the line address, the write flag, the index of the owning request in the
// buffer's request table, and — written by the drain — its completion cycle.
type lineReq struct {
	line  uint64
	write bool
	req   int32
	done  int64
}

// dest is one cache a buffer routes into: per-bank buckets so that routing
// happens at append time and the drain can hand each bank its inputs without
// any further sorting.
type dest struct {
	cache   *Cache
	buckets [][]lineReq
}

// bucketRef names one (destination, bank) bucket of a buffer.
type bucketRef struct {
	dest, bank int32
}

// request is the buffer-side record of one deferred access: the caller's
// tag and the max-reduced completion cycle of its lines.
type request struct {
	tag   int
	ready int64
}

// RequestBuffer is an append-only, replayable queue of deferred cache
// accesses, routed to destination banks as it is appended. The timing core
// gives each compute unit one buffer: phase 1 of a cycle appends the CU's
// requests in issue order, bucketing each line by (destination cache, bank);
// phase 2 (Drain.Flush) replays every bank's bucket sequence in (CU index,
// append order). The buffer lists the buckets it made non-empty
// (touched), so the drain and Reset visit only those: an idle destination
// costs nothing. Reset keeps capacity, so a steady-state tick/drain cycle
// allocates nothing.
//
// All Register calls must precede Drain construction (the drain captures
// pointers to the per-bank buckets).
type RequestBuffer struct {
	dests []dest
	reqs  []request
	// touched lists the non-empty buckets in first-append order.
	touched []bucketRef
}

// Register adds a destination cache and returns its handle for AppendLine/
// Append. Registering the same cache twice returns the same handle.
func (b *RequestBuffer) Register(c *Cache) int {
	for i := range b.dests {
		if b.dests[i].cache == c {
			return i
		}
	}
	b.dests = append(b.dests, dest{cache: c, buckets: make([][]lineReq, c.NumBanks())})
	return len(b.dests) - 1
}

// route appends one line of request ri to its bank's bucket of destination d.
func (b *RequestBuffer) route(d int, line uint64, write bool, ri int32) {
	dst := &b.dests[d]
	bank := dst.cache.BankOf(line)
	if len(dst.buckets[bank]) == 0 {
		b.touched = append(b.touched, bucketRef{dest: int32(d), bank: int32(bank)})
	}
	dst.buckets[bank] = append(dst.buckets[bank], lineReq{line: line, write: write, req: ri})
}

// AppendLine defers a single-line access to destination d.
func (b *RequestBuffer) AppendLine(d int, line uint64, write bool, tag int) {
	b.route(d, line, write, int32(len(b.reqs)))
	b.reqs = append(b.reqs, request{tag: tag})
}

// Append defers a multi-line access to destination d. Lines are copied into
// the per-bank buckets, so the caller's slice (typically coalescing scratch)
// may be reused immediately. Cross-bank lines of one request max-reduce
// their completion cycles back into a single ready cycle at drain time.
func (b *RequestBuffer) Append(d int, lines []uint64, write bool, tag int) {
	ri := int32(len(b.reqs))
	for _, line := range lines {
		b.route(d, line, write, ri)
	}
	b.reqs = append(b.reqs, request{tag: tag})
}

// Len returns the number of deferred requests.
func (b *RequestBuffer) Len() int { return len(b.reqs) }

// Reset empties the buffer, keeping its capacity.
func (b *RequestBuffer) Reset() {
	b.reqs = b.reqs[:0]
	for _, r := range b.touched {
		bucket := &b.dests[r.dest].buckets[r.bank]
		*bucket = (*bucket)[:0]
	}
	b.touched = b.touched[:0]
}
