package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/isa"
	"ilsim/internal/mem"
)

// Everything the benchmark generates itself comes from -seed, here. The
// Table 5 workloads derive their data from (name, scale) inside
// internal/workloads, so the seed cannot reach them.

// configGrid is the 5 x 4 x 5 design-point grid spanned by the VRF-bank,
// wavefront-slot and instruction-buffer ranges of exp.SweepPoints.
func configGrid() ([]exp.Point, error) {
	banks, err := exp.SweepPoints("banks")
	if err != nil {
		return nil, err
	}
	waves, err := exp.SweepPoints("waves")
	if err != nil {
		return nil, err
	}
	ibs, err := exp.SweepPoints("ib")
	if err != nil {
		return nil, err
	}
	var grid []exp.Point
	for _, b := range banks {
		for _, w := range waves {
			for _, ib := range ibs {
				cfg := core.DefaultConfig()
				cfg.VRFBanks, cfg.WFSlots, cfg.IBEntries = b.Config.VRFBanks, w.Config.WFSlots, ib.Config.IBEntries
				grid = append(grid, exp.Point{Config: cfg})
			}
		}
	}
	return grid, nil
}

// sweepJobs builds points x {HSAIL, GCN3} ArrayBW scale-1 jobs — the
// cheapest simulation the registry offers — and shuffles the submission
// order. Points walk a seeded permutation of the grid, so when points is a
// multiple of the grid size every seed submits the same work in another
// order and seeds differ in scheduling only.
func sweepJobs(seed int64, points int) ([]exp.Job, error) {
	grid, err := configGrid()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(len(grid))
	pts := make([]exp.Point, points)
	for i := range pts {
		pts[i] = grid[perm[i%len(grid)]]
		c := pts[i].Config
		pts[i].Label = fmt.Sprintf("p%03d banks=%d waves=%d ib=%d", i, c.VRFBanks, c.WFSlots, c.IBEntries)
	}
	jobs := exp.PairJobs("ArrayBW", 1, pts, core.RunOptions{CUParallelism: 1, MemParallelism: 1})
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// Geometry of the ladder's memory hierarchy (Table 4).
const (
	memSources = 8
	l1Lines    = (16 << 10) / mem.LineSize
	l2Lines    = (512 << 10) / mem.LineSize
)

type lanes = [isa.WavefrontSize]uint64

// streams are the seeded inputs of the mem and stats rungs.
type streams struct {
	// hit and miss are line-address streams, one per source: hit cycles
	// within half an L1, miss ranges over four L2s.
	hit, miss [memSources][]uint64
	// sparseSrc/sparseLines are flushes of one or two lines from one
	// source: what a compute-bound kernel hands the drain.
	sparseSrc   []int
	sparseLines [][]uint64
	// unit and scattered are per-lane byte addresses of one wavefront
	// access: consecutive words, and one line per lane.
	unit, scattered []lanes
	// words are byte addresses for Memory.ReadU32/WriteU32.
	words []uint64
	// slots and values feed the reuse tracker and the uniqueness counter.
	slots  []int
	values [][isa.WavefrontSize]uint32
}

func genStreams(seed int64, n int) *streams {
	r := rand.New(rand.NewSource(seed))
	s := &streams{}
	for src := 0; src < memSources; src++ {
		// Sources get disjoint regions, like CUs working on their own tiles.
		base := uint64(src) << 32
		for i := 0; i < n/memSources; i++ {
			s.hit[src] = append(s.hit[src], base+uint64(r.Intn(l1Lines/2))*mem.LineSize)
			s.miss[src] = append(s.miss[src], base+uint64(r.Intn(4*l2Lines))*mem.LineSize)
		}
	}
	for i := 0; i < n/2; i++ {
		s.sparseSrc = append(s.sparseSrc, r.Intn(memSources))
		lines := []uint64{uint64(r.Intn(l2Lines)) * mem.LineSize}
		if r.Intn(2) == 0 {
			lines = append(lines, lines[0]+mem.LineSize)
		}
		s.sparseLines = append(s.sparseLines, lines)
	}
	for i := 0; i < n/64; i++ {
		var u, sc lanes
		base := uint64(r.Intn(1<<20)) * mem.LineSize
		for l := range u {
			u[l] = base + 4*uint64(l)
			sc[l] = uint64(r.Intn(1<<20)) * mem.LineSize
		}
		s.unit, s.scattered = append(s.unit, u), append(s.scattered, sc)
		var v [isa.WavefrontSize]uint32
		for l := range v {
			v[l] = uint32(r.Intn(48))
		}
		s.values = append(s.values, v)
	}
	for i := 0; i < n; i++ {
		s.words = append(s.words, 4*uint64(r.Intn(1<<18)))
		s.slots = append(s.slots, r.Intn(256))
	}
	return s
}

// hash identifies the generated streams: equal seeds must give equal hashes.
func (s *streams) hash() string {
	h := sha256.New()
	var b [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for src := range s.hit {
		put(s.hit[src]...)
		put(s.miss[src]...)
	}
	for i, lines := range s.sparseLines {
		put(uint64(s.sparseSrc[i]))
		put(lines...)
	}
	for i := range s.unit {
		put(s.unit[i][:]...)
		put(s.scattered[i][:]...)
		for _, v := range s.values[i] {
			put(uint64(v))
		}
	}
	put(s.words...)
	for _, v := range s.slots {
		put(uint64(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
