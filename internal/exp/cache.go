package exp

import (
	"sync"

	"ilsim/internal/workloads"
)

// PrepareFunc prepares a workload instance at a scale. The default
// implementation is workloads.Prepare (the registry; an unknown name or a
// scale below 1 is a permanent-class error); tests substitute counters or
// failure injectors.
type PrepareFunc func(workload string, scale int) (*workloads.Instance, error)

// instanceKey identifies one cached preparation.
type instanceKey struct {
	workload string
	scale    int
}

// instanceEntry memoizes one preparation with once semantics: every caller
// observes the same (instance, error), and preparation runs exactly once
// even under concurrent Get calls.
type instanceEntry struct {
	once sync.Once
	inst *workloads.Instance
	err  error
}

// InstanceCache memoizes workload preparation per (workload, scale).
// Preparing a workload — kernel construction, finalization to GCN3, input
// generation — dwarfs per-point simulation setup, and is identical across
// config points; the cache makes an N-point sweep pay it once. Instances
// are safe to share because of the workloads.Instance concurrency contract.
type InstanceCache struct {
	prepare PrepareFunc
	mu      sync.Mutex
	entries map[instanceKey]*instanceEntry
}

// NewInstanceCache builds a cache over the workload registry.
func NewInstanceCache() *InstanceCache {
	return NewInstanceCacheFunc(workloads.Prepare)
}

// NewInstanceCacheFunc builds a cache with a custom preparation function
// (for tests).
func NewInstanceCacheFunc(prepare PrepareFunc) *InstanceCache {
	return &InstanceCache{prepare: prepare, entries: make(map[instanceKey]*instanceEntry)}
}

// Get returns the prepared instance for (workload, scale), preparing it on
// first use. Concurrent callers for the same key share one preparation;
// callers for different keys prepare in parallel.
func (c *InstanceCache) Get(workload string, scale int) (*workloads.Instance, error) {
	key := instanceKey{workload, scale}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &instanceEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.inst, e.err = c.prepare(workload, scale)
	})
	return e.inst, e.err
}

// Len reports the number of cached preparations (for tests and metrics).
func (c *InstanceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
