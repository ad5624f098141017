//go:build !amd64 || purego

package stats

// Without the assembly there is no CPUID to read: TestUniqueSIMDSelected
// then expects the table alone.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32) { return 0, 0, 0, 0 }

func xgetbv() (eax, edx uint32) { return 0, 0 }
