package randkernel

import (
	"reflect"
	"testing"
)

// TestGenIsDeterministic: one seed builds one kernel, in both modes.
func TestGenIsDeterministic(t *testing.T) {
	for _, raw := range []bool{true, false} {
		for seed := int64(0); seed < 20; seed++ {
			a, err := Gen(seed, raw)
			if err != nil {
				t.Fatalf("seed %d raw=%t: %v", seed, raw, err)
			}
			b, err := Gen(seed, raw)
			if err != nil {
				t.Fatalf("seed %d raw=%t: %v", seed, raw, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d raw=%t: two builds differ:\n%s\n---\n%s", seed, raw, a.Disassemble(), b.Disassemble())
			}
		}
	}
	a, _ := Gen(1, false)
	b, _ := Gen(2, false)
	if reflect.DeepEqual(a.Blocks, b.Blocks) {
		t.Fatal("seeds 1 and 2 build the same kernel")
	}
}

// TestGenBuildsEverySeed: seeds 0-199 build and validate, with and without
// register allocation.
func TestGenBuildsEverySeed(t *testing.T) {
	for _, raw := range []bool{true, false} {
		for seed := int64(0); seed < 200; seed++ {
			k, err := Gen(seed, raw)
			if err != nil {
				t.Fatalf("seed %d raw=%t: %v", seed, raw, err)
			}
			if err := k.Validate(); err != nil {
				t.Fatalf("seed %d raw=%t: %v", seed, raw, err)
			}
		}
	}
}
