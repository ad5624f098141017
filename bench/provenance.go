package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// provenance says where and on what a number was taken. Two results are
// comparable only when everything here except Seed and LoadAvg1 matches.
type provenance struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	P          int     `json:"P"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	LoadAvg1   float64 `json:"loadavg1"`
	// Noisy is set when the 1-minute load average at start exceeded
	// nproc/2: something else was using the host, so host-time numbers
	// from this run should not settle an A/B.
	Noisy bool `json:"noisy"`
}

func readProvenance(seed int64) provenance {
	n := runtime.NumCPU()
	p := provenance{
		// P is the intra-simulation worker count of mix_par and of the
		// ladder's speedup rungs.
		CPU: cpuModel(), NProc: n, GOMAXPROCS: runtime.GOMAXPROCS(0), P: min(n, 4),
		GoVersion: runtime.Version(), Seed: seed, LoadAvg1: loadAvg1(),
	}
	p.Commit, p.Dirty = gitState()
	p.Noisy = p.LoadAvg1 > float64(n)/2
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// gitState reports the checkout's commit and whether it has local changes;
// "unknown" outside a git checkout. GIT_CEILING_DIRECTORIES keeps git from
// adopting a repository above the working directory.
func gitState() (commit string, dirty bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", false
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	commit, err = git("rev-parse", "--short=12", "HEAD")
	if err != nil || commit == "" {
		return "unknown", false
	}
	status, err := git("status", "--porcelain")
	return commit, err == nil && status != ""
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
