//go:build !amd64 || purego

package stats

import "ilsim/internal/isa"

// A build without the assembly kernel counts every access with the table.
var uniqueSIMD func(vals *[isa.WavefrontSize]uint32, mask uint64) int
