// Package core is the public face of the simulator: it prepares kernels for
// both abstractions (compiling HSAIL through the finalizer and loading both
// binaries), drives kernel launches through the HSA runtime substrate, runs
// them on the shared timing model, and assembles the statistics the paper's
// figures report.
package core

import "ilsim/internal/timing"

// Config is the simulated machine (timing.Config); its field names are part
// of every job's identity.
type Config = timing.Config

// DefaultConfig returns the paper's Table 4 system.
func DefaultConfig() Config { return timing.DefaultConfig() }
