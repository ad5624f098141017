package core

import "ilsim/internal/timing"

// Test access to the device free list: what the next run would reuse, and a
// way to put a chosen device there.

// TakeDevice removes and returns the device on top of the free list, nil when
// it is empty.
func TakeDevice() *timing.GPU { return devices.pop() }

// OfferDevice puts g on the free list.
func OfferDevice(g *timing.GPU) { devices.push(g) }

// TakeMachine removes and returns the machine on top of the machine free
// list, nil when it is empty.
func TakeMachine() *Machine { return machines.pop() }

// CodeObjectBytes returns the encoded code object a GCN3 Machine loads.
func (ks *KernelSource) CodeObjectBytes() []byte { return ks.coBytes }
