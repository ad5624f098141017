package kernel

import (
	"fmt"
	"sort"

	"ilsim/internal/hsail"
	"ilsim/internal/isa"
)

// AllocateRegisters rewrites a (builder-produced, SSA-like) kernel onto a
// compact architectural register file, the way the high-level compiler's
// register allocator produces the HSAIL the paper studies — "HSAIL (which is
// register-allocated) allows up to 2,048 32-bit architectural vector
// registers" (§V.B). Compacting matters for fidelity: reuse of hot
// architectural registers is what gives IL execution its short register
// reuse distances (Figure 7) and dense VRF bank contention (Figure 6).
//
// The allocator is a linear scan over live intervals in layout order, with
// intervals extended across loop bodies for values that live across a back
// edge. Values are pooled by (scalar-homed, width) so the finalizer's
// slot-granular uniformity analysis still sees pure slots.
func AllocateRegisters(k *hsail.Kernel) error {
	cfg, err := AnalyzeCFG(k)
	if err != nil {
		return err
	}
	uni := AnalyzeUniformity(k, cfg)

	// Flatten instruction positions and record block extents.
	blockStart := make([]int, len(k.Blocks))
	blockEnd := make([]int, len(k.Blocks))
	pos := 0
	for bi, b := range k.Blocks {
		blockStart[bi] = pos
		pos += len(b.Insts)
		blockEnd[bi] = pos - 1
	}

	// Discover value units (a unit is one virtual value: 1 or 2 slots).
	type unit struct {
		start, width int
		lo, hi       int
		firstIsDef   bool
		uniform      bool
		phys         int
	}
	unitOf := map[int]*unit{} // start slot → unit
	var units []*unit
	// A unit's first reference is its definition only if nothing at that
	// position reads it: an instruction that reads and writes one slot
	// reads it first.
	p := 0
	for _, b := range k.Blocks {
		for ii := range b.Insts {
			b.Insts[ii].Operands(func(o *hsail.Operand, t isa.DataType, isDef bool) {
				if o.Kind != hsail.OperReg || err != nil {
					return
				}
				slot, width := int(o.Reg), t.Regs()
				u, ok := unitOf[slot]
				if !ok {
					u = &unit{start: slot, width: width, lo: p, hi: p, firstIsDef: isDef,
						uniform: uni.Slots[slot]}
					unitOf[slot] = u
					units = append(units, u)
					return
				}
				if u.width != width {
					err = fmt.Errorf("kernel: register slot %d used with widths %d and %d", slot, u.width, width)
					return
				}
				if p < u.lo {
					u.lo = p
					u.firstIsDef = isDef
				} else if p == u.lo && !isDef {
					u.firstIsDef = false
				}
				if p > u.hi {
					u.hi = p
				}
			})
			p++
		}
	}
	if err != nil {
		return err
	}

	// Loop regions in flattened positions.
	type region struct{ lo, hi int }
	var loops []region
	for _, sh := range cfg.Shapes {
		if sh.Kind == ShapeLoopLatch {
			loops = append(loops, region{blockStart[sh.Header], blockEnd[sh.Branch]})
		}
	}
	// Extend intervals across loops for values live around a back edge:
	// only a value wholly inside the loop whose first reference is its
	// definition is a per-iteration temporary; everything else that
	// touches the loop must survive the whole loop body.
	for changed := true; changed; {
		changed = false
		for _, u := range units {
			for _, L := range loops {
				if u.hi < L.lo || u.lo > L.hi {
					continue
				}
				inside := u.lo >= L.lo && u.hi <= L.hi
				if inside && u.firstIsDef {
					continue
				}
				if u.lo > L.lo {
					u.lo = L.lo
					changed = true
				}
				if u.hi < L.hi {
					u.hi = L.hi
					changed = true
				}
			}
		}
	}

	// Linear scan per (uniform, width) pool.
	sort.Slice(units, func(i, j int) bool {
		if units[i].lo != units[j].lo {
			return units[i].lo < units[j].lo
		}
		return units[i].start < units[j].start
	})
	type poolKey struct {
		uniform bool
		width   int
	}
	free := map[poolKey][]int{}
	type activeRec struct {
		hi   int
		phys int
		key  poolKey
	}
	var active []activeRec
	next := 0
	for _, u := range units {
		// Expire finished intervals.
		keep := active[:0]
		for _, a := range active {
			if a.hi < u.lo {
				free[a.key] = append(free[a.key], a.phys)
			} else {
				keep = append(keep, a)
			}
		}
		active = keep
		key := poolKey{u.uniform, u.width}
		if fl := free[key]; len(fl) > 0 {
			u.phys = fl[len(fl)-1]
			free[key] = fl[:len(fl)-1]
		} else {
			u.phys = next
			next += u.width
		}
		active = append(active, activeRec{hi: u.hi, phys: u.phys, key: key})
	}
	if next > isa.MaxHSAILRegs {
		return fmt.Errorf("kernel: register demand %d exceeds the HSAIL limit %d", next, isa.MaxHSAILRegs)
	}

	// Rewrite operands.
	for _, b := range k.Blocks {
		for ii := range b.Insts {
			b.Insts[ii].Operands(func(o *hsail.Operand, _ isa.DataType, _ bool) {
				if o.Kind == hsail.OperReg {
					o.Reg = uint16(unitOf[int(o.Reg)].phys)
				}
			})
		}
	}
	k.NumRegSlots = next
	return k.Validate()
}
