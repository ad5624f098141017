package timing

import (
	"fmt"

	"ilsim/internal/mem"
)

// Config is the simulated machine: the one description of it that a job
// fingerprints, the CLIs set and the timing model runs on. DefaultConfig is
// the paper's Table 4.
type Config struct {
	// NumCUs is the number of compute units.
	NumCUs int
	// SIMDsPerCU is the number of 16-lane SIMD engines per CU.
	SIMDsPerCU int
	// WFSlots is the number of wavefront slots per CU.
	WFSlots int
	// VRFBanks is the number of vector-register-file banks per CU, used
	// by the operand-collector conflict model.
	VRFBanks int
	// IBEntries is the per-wavefront instruction buffer capacity, in
	// entries of ibEntryBytes.
	IBEntries int
	// FetchWidth is the number of wavefronts the fetch stage may service
	// per cycle per CU.
	FetchWidth int

	// L1DSize / L1DWays: per-CU data cache (fully associative when
	// L1DWays <= 0, per Table 4).
	L1DSize int
	L1DWays int
	// L1ISize / L1IWays: instruction cache shared per 4 CUs.
	L1ISize int
	L1IWays int
	// ScalarL1Size / ScalarL1Ways: scalar data cache shared per 4 CUs.
	ScalarL1Size int
	ScalarL1Ways int
	// L2Size / L2Ways: shared L2, write-through per Table 4 (write-back
	// for read-write data is approximated as write-back).
	L2Size int
	L2Ways int
	// L2Banks set-interleaves the L2 into independent banks, each with its
	// own request port.
	L2Banks int
	// DRAMChannels / DRAMLatency / DRAMOccupancy: memory channels and
	// per-access timing in GPU cycles.
	DRAMChannels  int
	DRAMLatency   int64
	DRAMOccupancy int64

	// Latencies in GPU cycles.
	L1HitLatency     int64
	L2HitLatency     int64
	ScalarHitLatency int64
	LDSLatency       int64

	// GPUClockMHz scales cycle counts to time for reports.
	GPUClockMHz int
}

// DefaultConfig returns the paper's Table 4 system.
func DefaultConfig() Config {
	return Config{
		NumCUs:     8,
		SIMDsPerCU: 4,
		WFSlots:    40,
		VRFBanks:   16,
		IBEntries:  8,
		FetchWidth: 1,

		L1DSize: 16 << 10, L1DWays: 0, // fully associative
		// §V.C: "the GCN3 instruction footprint significantly exceeds the
		// L1 instruction cache size of 16KB" — the text's 16KB governs.
		L1ISize: 16 << 10, L1IWays: 8,
		ScalarL1Size: 32 << 10, ScalarL1Ways: 8,
		L2Size: 512 << 10, L2Ways: 16, L2Banks: 8,
		DRAMChannels: 32, DRAMLatency: 160, DRAMOccupancy: 4,

		L1HitLatency: 16, L2HitLatency: 64, ScalarHitLatency: 16,
		LDSLatency: 8,

		GPUClockMHz: 800,
	}
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.NumCUs <= 0 || c.SIMDsPerCU <= 0 || c.WFSlots <= 0 {
		return fmt.Errorf("timing: non-positive CU geometry")
	}
	if c.VRFBanks <= 0 || c.IBEntries <= 0 || c.FetchWidth <= 0 {
		return fmt.Errorf("timing: non-positive front-end geometry")
	}
	if c.DRAMChannels <= 0 {
		return fmt.Errorf("timing: need at least one DRAM channel")
	}
	if c.L2Banks < 0 {
		return fmt.Errorf("timing: negative L2 bank count")
	}
	// A negative latency completes a request before it was issued; the
	// drain would clamp it to the flush cycle and report nothing.
	for _, l := range []struct {
		name   string
		cycles int64
	}{
		{"DRAMLatency", c.DRAMLatency}, {"DRAMOccupancy", c.DRAMOccupancy},
		{"L1HitLatency", c.L1HitLatency}, {"L2HitLatency", c.L2HitLatency},
		{"ScalarHitLatency", c.ScalarHitLatency}, {"LDSLatency", c.LDSLatency},
	} {
		if l.cycles < 0 {
			return fmt.Errorf("timing: negative %s %d", l.name, l.cycles)
		}
	}
	for _, cache := range []struct {
		name string
		size int
	}{{"L1D", c.L1DSize}, {"L1I", c.L1ISize}, {"scalar L1", c.ScalarL1Size}, {"L2", c.L2Size}} {
		if cache.size < mem.LineSize {
			return fmt.Errorf("timing: %s of %d bytes holds no %d-byte line", cache.name, cache.size, mem.LineSize)
		}
	}
	return nil
}

// String summarizes the configuration in a Table 4-like block.
func (c Config) String() string {
	return fmt.Sprintf(
		"%d CUs @ %d MHz, %d SIMDs/CU, %d WF slots, %d VRF banks\n"+
			"L1D %dKB, I$ %dKB/4CUs, sL1 %dKB/4CUs, L2 %dKB x%d banks, DRAM %d ch",
		c.NumCUs, c.GPUClockMHz, c.SIMDsPerCU, c.WFSlots, c.VRFBanks,
		c.L1DSize>>10, c.L1ISize>>10, c.ScalarL1Size>>10, c.L2Size>>10, c.L2Banks, c.DRAMChannels)
}
