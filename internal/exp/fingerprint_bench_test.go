package exp_test

import (
	"slices"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/exp"
	"ilsim/internal/report"
)

var fingerprintSink string

// BenchmarkJobFingerprint times one job fingerprint, which a journal and a
// distributed campaign compute for every job: "suite" is a Table 5 job of
// the report's suite, "sweep" an ArrayBW@1 design point shaped like the
// loopback benchmark's sweep jobs.
func BenchmarkJobFingerprint(b *testing.B) {
	suite := report.SuiteJobs(core.DefaultConfig(), 2, true)
	i := slices.IndexFunc(suite, func(j exp.Job) bool { return j.Opts.TrackValues })
	cfg := core.DefaultConfig()
	cfg.VRFBanks, cfg.WFSlots, cfg.IBEntries = 8, 20, 4
	sweep := exp.PairJobs("ArrayBW", 1, []exp.Point{{Label: "p007 banks=8 waves=20 ib=4", Config: cfg}},
		core.RunOptions{CUParallelism: 1, MemParallelism: 1})
	for _, c := range []struct {
		name string
		job  exp.Job
	}{{"suite", suite[i]}, {"sweep", sweep[0]}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				fingerprintSink = c.job.Fingerprint()
			}
		})
	}
}
