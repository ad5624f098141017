package emu

import (
	"reflect"
	"testing"

	"ilsim/internal/gcn3"
	"ilsim/internal/isa"
	"ilsim/internal/kernel"
)

// TestWavePoolRearmsLikeNew: a wave taken from the pool is the wave NewWave
// builds without one, whichever engine and abstraction freed it and however
// it was left — every register, mask and list dirtied — and it reuses the
// freed register rows.
func TestWavePoolRearmsLikeNew(t *testing.T) {
	b := kernel.NewBuilder("pooled")
	gid := b.WorkItemAbsID(isa.DimX)
	x := b.Mov(isa.TypeU32, b.Int(isa.TypeU32, 0))
	b.IfCmp(isa.CmpLt, isa.TypeU32, gid, b.Int(isa.TypeU32, 16), func() {
		b.MovTo(x, b.Int(isa.TypeU32, 3))
	}, nil)
	b.Ret()
	hs, hw := hsailEngineFor(t, b.MustFinish())
	gc, gw := engineFor(t, []gcn3.Inst{{Op: gcn3.OpSEndpgm}})
	gc.CO.NumVGPRs = 40 // more rows than the HSAIL kernel's, so a switch regrows

	// want is what each engine's NewWave builds with no pool.
	want := map[Engine]*Wave{hs: hs.NewWave(hw.WG, 1), gc: gc.NewWave(gw.WG, 1)}
	pool := &WavePool{}
	hs.Waves, gc.Waves = pool, pool
	dirty := func(w *Wave) {
		w.PC, w.Exec, w.Done, w.VCC, w.SCC = 0xdead, 0x5, true, 7, true
		w.WaveID, w.FirstWI, w.NumLanes = 9, 9, 9
		for i := range w.SGPR {
			w.SGPR[i] = 0xabad
		}
		for _, rows := range [][][isa.WavefrontSize]uint32{w.VRegs, w.VGPR} {
			for i := range rows {
				rows[i][3] = 0xfeed
			}
		}
		for i := range w.CRegs {
			w.CRegs[i] = 3
		}
		w.RS = append(w.RS, RSEntry{RPC: 1, PC: 2, Mask: 3})
		w.linesBuf = append(w.linesBuf, 64, 128)
		w.valueKey, w.valueIndex = 5, 5
	}
	// empty normalizes empty slices to nil: a pooled wave keeps their
	// storage, a new one has none.
	empty := func(w *Wave) Wave {
		c := *w
		if len(c.CRegs) == 0 {
			c.CRegs = nil
		}
		if len(c.RS) == 0 {
			c.RS = nil
		}
		if len(c.linesBuf) == 0 {
			c.linesBuf = nil
		}
		if len(c.VRegs) == 0 {
			c.VRegs = nil
		}
		if len(c.VGPR) == 0 {
			c.VGPR = nil
		}
		return c
	}
	var prev *Wave
	var prevRows [][isa.WavefrontSize]uint32
	for i, eng := range []Engine{hs, hs, gc, gc, hs, gc} {
		wg := hw.WG
		if eng == gc {
			wg = gw.WG
		}
		w := eng.NewWave(wg, 1)
		if got, want := empty(w), empty(want[eng]); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): pooled wave\n%+v\nnew wave\n%+v", i, eng.Abstraction(), got, want)
		}
		rows := w.VRegs
		if eng == gc {
			rows = w.VGPR
		}
		if prev != nil {
			if w != prev || len(pool.free) != 0 {
				t.Fatalf("step %d: NewWave did not take the freed wave from the pool", i)
			}
			if cap(prevRows) >= len(rows) && &rows[0] != &prevRows[0] {
				t.Fatalf("step %d: %d registers did not reuse the freed wave's %d rows", i, len(rows), cap(prevRows))
			}
		}
		dirty(w)
		eng.FreeWave(w)
		prev, prevRows = w, rows[:cap(rows)]
	}
}
