package core

import "ilsim/internal/timing"

// Test access to the device free list: what the next run would reuse, and a
// way to put a chosen device there.

// TakeDevice removes and returns the device on top of the free list, nil when
// it is empty.
func TakeDevice() *timing.GPU { return popDevice() }

// OfferDevice puts g on the free list.
func OfferDevice(g *timing.GPU) { putDevice(g) }
