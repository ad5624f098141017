package emu

import (
	"fmt"
	"reflect"

	"ilsim/internal/isa"
)

// diffWaves reports the first difference between two wavefronts' states.
func diffWaves(a, b *Wave) string {
	switch {
	case a.PC != b.PC:
		return fmt.Sprintf("PC %#x != %#x", a.PC, b.PC)
	case a.Exec != b.Exec:
		return fmt.Sprintf("EXEC %#x != %#x", a.Exec, b.Exec)
	case a.Done != b.Done:
		return fmt.Sprintf("Done %v != %v", a.Done, b.Done)
	case !reflect.DeepEqual(a.RS, b.RS) && (len(a.RS) != 0 || len(b.RS) != 0):
		return fmt.Sprintf("RS %v != %v", a.RS, b.RS)
	case a.VCC != b.VCC:
		return fmt.Sprintf("VCC %#x != %#x", a.VCC, b.VCC)
	case a.SCC != b.SCC:
		return fmt.Sprintf("SCC %v != %v", a.SCC, b.SCC)
	case a.SGPR != b.SGPR:
		for i := range a.SGPR {
			if a.SGPR[i] != b.SGPR[i] {
				return fmt.Sprintf("s%d %#x != %#x", i, a.SGPR[i], b.SGPR[i])
			}
		}
	}
	for i := range a.CRegs {
		if a.CRegs[i] != b.CRegs[i] {
			return fmt.Sprintf("$c%d %#x != %#x", i, a.CRegs[i], b.CRegs[i])
		}
	}
	for name, regs := range map[string][2][][isa.WavefrontSize]uint32{"$s": {a.VRegs, b.VRegs}, "v": {a.VGPR, b.VGPR}} {
		for i := range regs[0] {
			if regs[0][i] != regs[1][i] {
				for l := range regs[0][i] {
					if regs[0][i][l] != regs[1][i][l] {
						return fmt.Sprintf("%s%d lane %d: %#x != %#x", name, i, l, regs[0][i][l], regs[1][i][l])
					}
				}
			}
		}
	}
	return ""
}

// diffResults reports the first difference between two ExecResults.
func diffResults(a, b ExecResult) string {
	if len(a.Lines) != len(b.Lines) {
		return fmt.Sprintf("Lines %#x != %#x", a.Lines, b.Lines)
	}
	for i := range a.Lines {
		if a.Lines[i] != b.Lines[i] {
			return fmt.Sprintf("Lines[%d] %#x != %#x", i, a.Lines[i], b.Lines[i])
		}
	}
	a.Lines, b.Lines = nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("result %+v != %+v", a, b)
	}
	return ""
}
