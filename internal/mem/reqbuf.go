package mem

import "slices"

// lineReq is one deferred line access: the line address, the write flag and
// the index of the owning request in the buffer's request table.
type lineReq struct {
	line  uint64
	write bool
	req   int32
}

// dest is one level-1 cache a buffer routes into, with the lines deferred to
// it in append order.
type dest struct {
	cache *Cache
	lines []lineReq
}

// request is the buffer-side record of one deferred access: the caller's
// tag and the max-reduced completion cycle of its lines (zero until the
// drain raises it; a request without lines completes at the flush cycle).
type request struct {
	tag   int
	ready int64
}

// RequestBuffer is an append-only, replayable queue of deferred cache
// accesses, split by destination cache as it is appended. The timing core
// gives the device one buffer: phase 1 of a cycle appends every CU's
// requests, CU by CU in issue order; phase 2 (Drain.Flush) replays every
// level-1 cache's lines in append order and resets the buffer. Reset keeps
// capacity, so a steady-state tick/drain cycle allocates nothing.
//
// All Register calls must precede Drain construction (the drain records
// which buffers feed which cache).
type RequestBuffer struct {
	dests []dest
	reqs  []request
}

// Register adds a destination cache and returns its handle for AppendLine/
// Append. Registering the same cache twice returns the same handle.
func (b *RequestBuffer) Register(c *Cache) int {
	for i := range b.dests {
		if b.dests[i].cache == c {
			return i
		}
	}
	b.dests = append(b.dests, dest{cache: c})
	return len(b.dests) - 1
}

// AppendLine defers a single-line access to destination d.
func (b *RequestBuffer) AppendLine(d int, line uint64, write bool, tag int) {
	dst := &b.dests[d]
	dst.lines = append(dst.lines, lineReq{line: line, write: write, req: int32(len(b.reqs))})
	b.reqs = append(b.reqs, request{tag: tag})
}

// Append defers a multi-line access to destination d. Lines are copied, so
// the caller's slice (typically coalescing scratch) may be reused
// immediately. The lines of one request max-reduce their completion cycles
// into a single ready cycle at drain time.
func (b *RequestBuffer) Append(d int, lines []uint64, write bool, tag int) {
	dst := &b.dests[d]
	ri := int32(len(b.reqs))
	n := len(dst.lines)
	dst.lines = slices.Grow(dst.lines, len(lines))[:n+len(lines)]
	for i, line := range lines {
		dst.lines[n+i] = lineReq{line: line, write: write, req: ri}
	}
	b.reqs = append(b.reqs, request{tag: tag})
}

// Reset empties the buffer, keeping its capacity.
func (b *RequestBuffer) Reset() {
	b.reqs = b.reqs[:0]
	for i := range b.dests {
		b.dests[i].lines = b.dests[i].lines[:0]
	}
}
