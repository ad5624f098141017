package stats

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"ilsim/internal/isa"
)

type laneVals = [isa.WavefrontSize]uint32

// uniqueOracle is UniqueCount's specification: a map.
func uniqueOracle(vals *laneVals, mask isa.ExecMask) (unique, lanes int) {
	set := map[uint32]bool{}
	for l, v := range vals {
		if mask.Bit(l) {
			set[v] = true
			lanes++
		}
	}
	return len(set), lanes
}

// oneSlotValue returns the k-th of the values whose hash is the table's last
// slot (the multiplier is odd, so multiplication is a bijection and Newton's
// iteration inverts it). It is the one white-box piece of these tests: were
// the hash to change, the shapes built from it would merely stop colliding.
func oneSlotValue(k uint32) uint32 {
	inv := uint32(uniqueHashMul) // correct to 3 bits; each step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - uniqueHashMul*inv
	}
	const lastSlot = 1<<uniqueTableBits - 1
	return (lastSlot<<(32-uniqueTableBits) | k) * inv
}

// laneShapes are the kinds of operand UniqueCount has to count exactly: what
// the pre-pass settles, what just misses it, and what stresses the table
// (two values in one slot, a probe that runs off the table's end, values
// that could be mistaken for an empty slot).
var laneShapes = []struct {
	name string
	fill func(rng *rand.Rand, v *laneVals)
}{
	{"uniform", func(rng *rand.Rand, v *laneVals) {
		x := rng.Uint32()
		for i := range v {
			v[i] = x
		}
	}},
	{"uniform-but-one", func(rng *rand.Rand, v *laneVals) {
		x := rng.Uint32()
		for i := range v {
			v[i] = x
		}
		v[rng.Intn(len(v))]++
	}},
	{"ascending", func(rng *rand.Rand, v *laneVals) {
		base, stride := rng.Uint32()>>1, 1+rng.Uint32()%1024
		for i := range v {
			v[i] = base + uint32(i)*stride
		}
	}},
	{"descending", func(rng *rand.Rand, v *laneVals) {
		base, stride := 1<<31+rng.Uint32()>>1, 1+rng.Uint32()%1024
		for i := range v {
			v[i] = base - uint32(i)*stride
		}
	}},
	{"ascending-with-plateau", func(rng *rand.Rand, v *laneVals) {
		for i := range v {
			v[i] = uint32(i * 8)
		}
		at := 1 + rng.Intn(len(v)-1)
		v[at] = v[at-1]
	}},
	{"descending-with-plateau", func(rng *rand.Rand, v *laneVals) {
		for i := range v {
			v[i] = uint32(4096 - i*8)
		}
		at := 1 + rng.Intn(len(v)-1)
		v[at] = v[at-1]
	}},
	{"ascending-wrapping", func(rng *rand.Rand, v *laneVals) {
		// Wraps past 2^32 part-way: ascending, then a drop, all distinct.
		base := ^uint32(0) - uint32(rng.Intn(60))
		for i := range v {
			v[i] = base + uint32(i)
		}
	}},
	{"all-distinct-random", func(rng *rand.Rand, v *laneVals) {
		salt := rng.Uint32()
		for i, p := range rng.Perm(len(v)) {
			v[i] = (uint32(p) + salt) * 0x85EBCA6B // odd: distinct in, distinct out
		}
	}},
	{"few-valued-narrow", func(rng *rand.Rand, v *laneVals) {
		for i := range v {
			v[i] = uint32(rng.Intn(8))
		}
	}},
	{"few-valued-wide", func(rng *rand.Rand, v *laneVals) {
		k := 2 + rng.Intn(30)
		for i := range v {
			v[i] = uint32(rng.Intn(k)) * 0x01000193
		}
	}},
	{"mostly-distinct", func(rng *rand.Rand, v *laneVals) {
		for i := range v {
			v[i] = rng.Uint32()
		}
		for n := rng.Intn(12); n > 0; n-- {
			v[rng.Intn(len(v))] = v[rng.Intn(len(v))]
		}
	}},
	{"equal-top-bits", func(rng *rand.Rand, v *laneVals) {
		top := rng.Uint32() &^ 0xFF
		for i := range v {
			v[i] = top | uint32(rng.Intn(256))
		}
	}},
	{"equal-bottom-bits", func(rng *rand.Rand, v *laneVals) {
		bottom := rng.Uint32() & 0x00FFFFFF
		for i := range v {
			v[i] = uint32(rng.Intn(256))<<24 | bottom
		}
	}},
	{"zero-and-all-ones", func(rng *rand.Rand, v *laneVals) {
		for i := range v {
			v[i] = -uint32(rng.Intn(2))
		}
	}},
	{"zero-among-others", func(rng *rand.Rand, v *laneVals) {
		for i := range v {
			v[i] = []uint32{0, 0, 1, ^uint32(0), 1 << 31, rng.Uint32()}[rng.Intn(6)]
		}
	}},
	{"one-slot-distinct", func(rng *rand.Rand, v *laneVals) {
		// 64 distinct values, one table slot, and it is the last one: every
		// probe after the first runs off the end of the table.
		for i, p := range rng.Perm(len(v)) {
			v[i] = oneSlotValue(uint32(p))
		}
	}},
	{"one-slot-repeats", func(rng *rand.Rand, v *laneVals) {
		k := 2 + rng.Intn(40)
		for i := range v {
			v[i] = oneSlotValue(uint32(rng.Intn(k)))
		}
	}},
}

// uniqueImpl is one way to count: UniqueCount as dispatched (name ""), or
// one implementation forced at every lane count.
type uniqueImpl struct {
	name  string
	count func(*laneVals, isa.ExecMask) (unique, lanes int)
}

// uniqueImpls lists the dispatched UniqueCount, the table ("/table") and,
// where this build and CPU selected it, the AVX-512 kernel ("/avx512").
func uniqueImpls() []uniqueImpl {
	impls := []uniqueImpl{
		{"", UniqueCount},
		{"/table", func(v *laneVals, m isa.ExecMask) (int, int) {
			lanes := m.PopCount()
			if lanes <= 1 {
				return lanes, lanes
			}
			return uniqueTable(v, m, lanes), lanes
		}},
	}
	if simd := uniqueSIMD; simd != nil {
		impls = append(impls, uniqueImpl{"/avx512", func(v *laneVals, m isa.ExecMask) (int, int) {
			lanes := m.PopCount()
			if lanes == 0 {
				return 0, 0
			}
			return simd(v, uint64(m)), lanes
		}})
	}
	return impls
}

func fullMask(*rand.Rand) isa.ExecMask { return isa.FullMask(isa.WavefrontSize) }

// sparseMask keeps about one lane in eight.
func sparseMask(rng *rand.Rand) isa.ExecMask {
	return isa.ExecMask(rng.Uint64() & rng.Uint64() & rng.Uint64())
}

var laneMasks = []struct {
	name string
	draw func(rng *rand.Rand) isa.ExecMask
}{
	{"full", fullMask},
	{"empty", func(*rand.Rand) isa.ExecMask { return 0 }},
	{"single-lane", func(rng *rand.Rand) isa.ExecMask { return isa.ExecMask(1) << rng.Intn(isa.WavefrontSize) }},
	{"two-lanes", func(rng *rand.Rand) isa.ExecMask {
		return isa.ExecMask(1)<<rng.Intn(isa.WavefrontSize) | isa.ExecMask(1)<<rng.Intn(isa.WavefrontSize)
	}},
	{"random", func(rng *rand.Rand) isa.ExecMask { return isa.ExecMask(rng.Uint64()) }},
	{"sparse", sparseMask},
	{"all-but-one", func(rng *rand.Rand) isa.ExecMask {
		return isa.FullMask(isa.WavefrontSize).ClearBit(rng.Intn(isa.WavefrontSize))
	}},
	{"low-half", func(*rand.Rand) isa.ExecMask { return isa.FullMask(isa.WavefrontSize / 2) }},
}

func TestUniqueCountAgainstMapOracle(t *testing.T) {
	for _, impl := range uniqueImpls() {
		for _, shape := range laneShapes {
			for _, mk := range laneMasks {
				rng := rand.New(rand.NewSource(5))
				for iter := 0; iter < 200; iter++ {
					var vals laneVals
					shape.fill(rng, &vals)
					mask := mk.draw(rng)
					unique, lanes := impl.count(&vals, mask)
					wantUnique, wantLanes := uniqueOracle(&vals, mask)
					if unique != wantUnique || lanes != wantLanes {
						t.Fatalf("UniqueCount%s: %s under a %s mask, iter %d: got (%d,%d), want (%d,%d)\nmask %#016x\nvals %#x",
							impl.name, shape.name, mk.name, iter, unique, lanes, wantUnique, wantLanes, uint64(mask), vals)
					}
				}
			}
		}
	}
}

// TestUniqueSIMDSelected: the vector kernel is selected exactly when CPUID
// and XGETBV say the CPU and the operating system can run it. The feature
// bits are read here afresh, not through cpuHasAVX512.
func TestUniqueSIMDSelected(t *testing.T) {
	want := false
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 7 {
		_, _, ecx1, _ := cpuid(1, 0)
		_, ebx7, _, _ := cpuid(7, 0)
		want = ecx1>>23&1 == 1 && ecx1>>27&1 == 1 && ebx7>>16&1 == 1
		if want {
			xcr0, _ := xgetbv()
			want = xcr0&0xE6 == 0xE6
		}
	}
	if got := uniqueSIMD != nil; got != want {
		t.Fatalf("AVX-512 kernel selected=%v, but CPUID and XGETBV say %v", got, want)
	}
	if !want {
		t.Logf("the table counts every access (no AVX-512 here, or a build without the kernel)")
	}
}

// TestUniqueCountNoAllocs: the kernel runs once per sampled VRF operand; the
// packed lanes and the table must stay on the stack.
func TestUniqueCountNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range laneShapes {
		var vals laneVals
		shape.fill(rng, &vals)
		for _, mk := range laneMasks {
			mask := mk.draw(rng)
			if n := testing.AllocsPerRun(100, func() { UniqueCount(&vals, mask) }); n != 0 {
				t.Errorf("%s under a %s mask: %v allocations per call, want 0", shape.name, mk.name, n)
			}
		}
	}
}

// lanesFromBytes reads one little-endian word per lane; lanes the data does
// not reach are zero, so a short input is a few values and a run of zeros.
func lanesFromBytes(data []byte) *laneVals {
	var padded [4 * isa.WavefrontSize]byte
	copy(padded[:], data)
	var vals laneVals
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(padded[4*i:])
	}
	return &vals
}

func FuzzUniqueCount(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i, shape := range laneShapes {
		var vals laneVals
		shape.fill(rng, &vals)
		data := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint32(data, v)
		}
		f.Add(data, uint64(laneMasks[i%len(laneMasks)].draw(rng)))
	}
	f.Add([]byte{1, 0, 0, 0}, ^uint64(0)) // one value, then 63 zeros
	impls := uniqueImpls()
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		vals := lanesFromBytes(data)
		wantUnique, wantLanes := uniqueOracle(vals, isa.ExecMask(mask))
		for _, impl := range impls {
			unique, lanes := impl.count(vals, isa.ExecMask(mask))
			if unique != wantUnique || lanes != wantLanes {
				t.Fatalf("UniqueCount%s: got (%d,%d), want (%d,%d)\nmask %#016x\nvals %#x",
					impl.name, unique, lanes, wantUnique, wantLanes, mask, *vals)
			}
		}
	})
}

// BenchmarkUniqueCount times the kernel on the operand shapes a suite run
// feeds it (docs/host-speed-log.md "Fig 10's kernel and the report's tail" has the
// census): about a third of sampled accesses are uniform, a twelfth
// ascending, a sixth all distinct in no order, under half mostly distinct,
// a fortieth few-valued; nine in ten under a full mask. Each shape cycles
// through 1024 different inputs so the branch predictor cannot learn one.
// Every case runs UniqueCount as dispatched and each implementation forced
// (uniqueImpls); the lanes-N cases, N random lanes of mostly-distinct
// values, are where uniqueSIMDMinLanes comes from.
func BenchmarkUniqueCount(b *testing.B) {
	byName := map[string]func(*rand.Rand, *laneVals){}
	for _, s := range laneShapes {
		byName[s.name] = s.fill
	}
	for _, bc := range []struct {
		name, shape string
		mask        func(*rand.Rand) isa.ExecMask
	}{
		{"uniform", "uniform", fullMask},
		{"ascending", "ascending", fullMask},
		{"few", "few-valued-wide", fullMask},
		{"random", "all-distinct-random", fullMask},
		{"mostly-distinct", "mostly-distinct", fullMask},
		{"sparse-mask", "mostly-distinct", sparseMask},
		{"lanes-4", "mostly-distinct", lanesMask(4)},
		{"lanes-6", "mostly-distinct", lanesMask(6)},
		{"lanes-8", "mostly-distinct", lanesMask(8)},
	} {
		for _, impl := range uniqueImpls() {
			b.Run(bc.name+impl.name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(3))
				inputs := make([]laneVals, 1024)
				masks := make([]isa.ExecMask, len(inputs))
				for i := range inputs {
					byName[bc.shape](rng, &inputs[i])
					masks[i] = bc.mask(rng)
				}
				b.ResetTimer()
				sink := 0
				for i := 0; i < b.N; i++ {
					u, _ := impl.count(&inputs[i%len(inputs)], masks[i%len(inputs)])
					sink += u
				}
				if sink < 0 {
					b.Fatal("unreachable: keeps the calls live")
				}
			})
		}
	}
}

// lanesMask draws masks of exactly n random lanes.
func lanesMask(n int) func(*rand.Rand) isa.ExecMask {
	return func(rng *rand.Rand) isa.ExecMask {
		var m uint64
		for bits.OnesCount64(m) < n {
			m |= 1 << rng.Intn(isa.WavefrontSize)
		}
		return isa.ExecMask(m)
	}
}
