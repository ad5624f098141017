package emu

import (
	"fmt"

	"ilsim/internal/hsa"
)

// RunFunctional executes a dispatch to completion with no timing model:
// wavefronts within a workgroup are stepped round-robin (one instruction per
// turn) and workgroup barriers release when every unfinished wavefront of the
// group has reached one. It is the reference executor used by tests and by
// the finalizer-equivalence property suite; package timing replicates its
// semantics with cycle accounting.
func RunFunctional(eng Engine, d *hsa.Dispatch) error {
	for wi := range d.Workgroups {
		info := &d.Workgroups[wi]
		wg := NewWGState(d, info, eng.LDSBytes())
		waves := make([]*Wave, info.NumWaves)
		for i := range waves {
			waves[i] = eng.NewWave(wg, i)
		}
		atBarrier := make([]bool, len(waves))
		for {
			allDone := true
			progressed := false
			for i, w := range waves {
				if w.Done {
					continue
				}
				allDone = false
				if atBarrier[i] {
					continue
				}
				res, err := eng.Execute(w)
				if err != nil {
					return fmt.Errorf("emu: %s wg %d wave %d: %w", eng.Abstraction(), wi, i, err)
				}
				progressed = true
				if res.IsBarrier {
					atBarrier[i] = true
				}
			}
			if allDone {
				for _, w := range waves {
					eng.FreeWave(w)
				}
				break
			}
			if !progressed {
				// Everyone left is waiting at a barrier: release.
				stuck := true
				for i, w := range waves {
					if w.Done {
						continue
					}
					if atBarrier[i] {
						atBarrier[i] = false
						stuck = false
					}
				}
				if stuck {
					return fmt.Errorf("emu: %s wg %d: no runnable wavefront (deadlock)", eng.Abstraction(), wi)
				}
			}
		}
	}
	return nil
}
