package prof

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	stop, err := StartOptions(Options{CPUPath: cpu, MemPath: mem})
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestStartOptionsBlockMutex(t *testing.T) {
	dir := t.TempDir()
	block := filepath.Join(dir, "block.out")
	mutex := filepath.Join(dir, "mutex.out")
	stop, err := StartOptions(Options{BlockPath: block, MutexPath: mutex})
	if err != nil {
		t.Fatal(err)
	}
	// Generate one blocking event (channel wait) and one mutex contention
	// so the profiles are non-trivial.
	var mu sync.Mutex
	mu.Lock()
	ch := make(chan struct{})
	go func() {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // contention fixture
		close(ch)
	}()
	time.Sleep(time.Millisecond)
	mu.Unlock()
	<-ch
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{block, mutex} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	// The rates must be restored so profiling cost ends with stop.
	if r := runtime.SetMutexProfileFraction(-1); r != 0 {
		t.Errorf("mutex profile fraction left at %d after stop", r)
	}
}

func TestStartDisabled(t *testing.T) {
	stop, err := StartOptions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
