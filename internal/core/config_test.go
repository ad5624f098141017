package core

import (
	"strings"
	"testing"

	"ilsim/internal/mem"
)

// TestValidateRejectsCacheBelowOneLine: a cache smaller than one line has no
// sets for mem.NewCache to build (it divided by zero inside the job); such a
// Config — which in a distributed campaign arrives off the wire — must fail
// Validate, and so NewSimulator, with an error naming the cache.
func TestValidateRejectsCacheBelowOneLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		size func(c *Config) *int
	}{
		{"L1D", func(c *Config) *int { return &c.L1DSize }},
		{"L1I", func(c *Config) *int { return &c.L1ISize }},
		{"scalar L1", func(c *Config) *int { return &c.ScalarL1Size }},
		{"L2", func(c *Config) *int { return &c.L2Size }},
	} {
		for _, bytes := range []int{mem.LineSize - 1, 32, 0, -mem.LineSize} {
			cfg := DefaultConfig()
			*tc.size(&cfg) = bytes
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.name+" of") {
				t.Errorf("%s = %d bytes: Validate = %v, want an error naming the cache", tc.name, bytes, err)
			}
			if _, err := NewSimulator(cfg); err == nil {
				t.Errorf("%s = %d bytes: NewSimulator accepted the config", tc.name, bytes)
			}
		}
	}

	// One line is the smallest cache mem.NewCache can build: that passes, and
	// a machine made of four such caches runs.
	cfg := DefaultConfig()
	cfg.L1DSize, cfg.L1ISize, cfg.ScalarL1Size, cfg.L2Size = mem.LineSize, mem.LineSize, mem.LineSize, mem.LineSize
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("one-line caches: %v", err)
	}
	ks := buildStreamKernel(t)
	const n = 128
	run, _, err := sim.Run(AbsGCN3, "stream", func(m *Machine) error {
		return m.Submit(Launch{Kernel: ks, Grid: [3]uint32{n, 1, 1}, WG: [3]uint16{64, 1, 1},
			Args: []uint64{m.Ctx.AllocBuffer(4 * n), m.Ctx.AllocBuffer(4 * n), 1}})
	}, RunOptions{})
	if err != nil || run.Cycles == 0 {
		t.Fatalf("one-line caches: run = %v, %v", run, err)
	}
}

// TestValidateRejectsNegativeLatency: a negative latency or occupancy would
// complete requests before they were issued (the drain clamps them to the
// flush cycle, silently), so Validate, and so NewSimulator, refuse it with an
// error naming the field. Zero is a legal latency.
func TestValidateRejectsNegativeLatency(t *testing.T) {
	fields := []struct {
		name   string
		cycles func(c *Config) *int64
	}{
		{"DRAMLatency", func(c *Config) *int64 { return &c.DRAMLatency }},
		{"DRAMOccupancy", func(c *Config) *int64 { return &c.DRAMOccupancy }},
		{"L1HitLatency", func(c *Config) *int64 { return &c.L1HitLatency }},
		{"L2HitLatency", func(c *Config) *int64 { return &c.L2HitLatency }},
		{"ScalarHitLatency", func(c *Config) *int64 { return &c.ScalarHitLatency }},
		{"LDSLatency", func(c *Config) *int64 { return &c.LDSLatency }},
	}
	for _, f := range fields {
		for _, cycles := range []int64{-1, -500} {
			cfg := DefaultConfig()
			*f.cycles(&cfg) = cycles
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %d: Validate = %v, want an error naming the field", f.name, cycles, err)
			}
			if _, err := NewSimulator(cfg); err == nil {
				t.Errorf("%s = %d: NewSimulator accepted the config", f.name, cycles)
			}
		}
	}
	cfg := DefaultConfig()
	cfg.DRAMLatency, cfg.L2HitLatency = -500, -100
	if _, err := NewSimulator(cfg); err == nil {
		t.Error("DRAMLatency -500, L2HitLatency -100: NewSimulator accepted the config")
	}
	cfg = DefaultConfig()
	for _, f := range fields {
		*f.cycles(&cfg) = 0
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("every latency 0: Validate = %v", err)
	}
}
