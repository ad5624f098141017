package report

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"testing"

	"ilsim/internal/core"
	"ilsim/internal/exp"
)

// goldenFingerprints pins sha256(stats.Run.Fingerprint()) for every
// (workload, abstraction) of the Table 5 suite at scale 1 on the default
// Table 4 machine. Performance work on the timing core (cycle skipping,
// allocation-free issue) must leave every run byte-identical: these hashes
// are the contract. Regenerate with:
//
//	ILSIM_UPDATE_GOLDEN=1 go test ./internal/report -run TestGoldenFingerprints -v
//
// and paste the printed map — but only when a change deliberately moves the
// model, never for a speedup, and together with a core.ModelVersion bump
// (TestGoldensPinnedToModelVersion).
//
// Last epoch: the banked memory system (set-interleaved L2 banks with
// per-bank ports, per-channel DRAM ports, and the level-wave drain's
// bank-order replay of L2 victim write-backs) changes shared-cache timing.
var goldenFingerprints = map[string]string{
	"ArrayBW/HSAIL":     "2c86e9d748245cdc3ae5192b1e68f7226d752313e606436fa9dc2f6b23d8821b",
	"ArrayBW/GCN3":      "315bac5b3ce830cbcb714ec3c114e4575bf757a20cc5b942c255bc03ca9b1ab2",
	"BitonicSort/HSAIL": "383120a02b3871d717e4747d31619d7c4c6fc8c88f8a2aad0a5fc0880f4c6f54",
	"BitonicSort/GCN3":  "1368ca4ca2e2514b0811ea74c5ff0e728df9d091281afd92eb23f5b7a49b3488",
	"CoMD/HSAIL":        "d2b92c184cdbc1d9634d7e5ea725f20e85448e046995dd290590940b83d32cef",
	"CoMD/GCN3":         "b8ad7ed05f84289cef492a76dd562fa3d2356531422138c8a9ce5372357e988a",
	"FFT/HSAIL":         "4bf9360def23d4aec6fd5709609c865e7f4198bcfc6d512d44e50434debd805b",
	"FFT/GCN3":          "878bc6e8a1913dddff3f9cf34be67e9606336e35729d6ed81ffc36a2aef57e1f",
	"HPGMG/HSAIL":       "960c8b75dc9862eb60972eb9b025627e799962653ddd7c39ee385f26867a55f4",
	"HPGMG/GCN3":        "268d2fb6139d25c76d29b2ff2b41983575c05e7f268fce10e187623455c99b71",
	"LULESH/HSAIL":      "933bacb5f7c8bec7c7fe6d2ea293db7cdb45cf2787fcc8fb875111781fbc1865",
	"LULESH/GCN3":       "f791db2bb56c9091df47989e52ce3d264138a161c298e6d91fe4260a97f3017d",
	"MD/HSAIL":          "5774a4fccd94a580aff664259b0bfb741b6e7eefbde594149abc5cbeafe0da91",
	"MD/GCN3":           "08460c406b5308ab425227312e8106669ac93a56f65422fc9dad796c3a3ef5fc",
	"SNAP/HSAIL":        "d8fe4003baffc0cc5dd46a08f22ed90b0839cf631991ce101b1dc6c04fff9d15",
	"SNAP/GCN3":         "ad3c1eec98598d03ea7a94e11e3016dde944c7e1aacc35b8875664cf7c7e3ed1",
	"SpMV/HSAIL":        "7b04b90a05a070c5c06ffe4372333aaa8c58d9c0131550590a5a01aa5bb110a0",
	"SpMV/GCN3":         "7637385a25ff0dd5e12eb2ad1be82c08c2513f49ab30ed15088ce6e6df28da51",
	"XSBench/HSAIL":     "39201326a68fe08c7fe4f4a17a107af9d3c73c65431725279504c091fb7b5737",
	"XSBench/GCN3":      "c68c08d5d5c632edefd8006fe62bb918e84cf371d2023996fd551a6a6f8b5a86",
}

// goldenModel and goldenSHA pin the pair (core.ModelVersion, sha256 of the
// sorted goldenFingerprints): the goldens move only with a model version
// bump, so a -resume journal of the old model is refused instead of mixing
// two models' results into one report.
const (
	goldenModel = 1
	goldenSHA   = "1b2b65997cd0c93216af097bdc037c7e0ed02a6240087ba83fc0df6e9d2e8d78"
)

// TestGoldensPinnedToModelVersion fails when the goldens or
// core.ModelVersion move without the other, and says what to re-pin.
func TestGoldensPinnedToModelVersion(t *testing.T) {
	keys := make([]string, 0, len(goldenFingerprints))
	for k := range goldenFingerprints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, goldenFingerprints[k])
	}
	sum := hex.EncodeToString(h.Sum(nil))
	switch {
	case sum == goldenSHA && core.ModelVersion == goldenModel:
	case core.ModelVersion == goldenModel:
		t.Fatalf("the goldens moved (sha256 %s, pinned %s) but core.ModelVersion is still %d: "+
			"bump core.ModelVersion in internal/core, then pin goldenModel and goldenSHA = %q",
			sum, goldenSHA, core.ModelVersion, sum)
	default:
		t.Fatalf("core.ModelVersion is %d but the goldens are pinned at model %d: "+
			"pin goldenModel = %d and goldenSHA = %q", core.ModelVersion, goldenModel, core.ModelVersion, sum)
	}
}

// TestGoldenFingerprints runs the full 10-workload suite under both
// abstractions (with the report's statistics tracking enabled, so the reuse
// and uniqueness paths are exercised) and requires byte-identical
// fingerprints against the committed goldens.
func TestGoldenFingerprints(t *testing.T) {
	res, err := CollectParallel(exp.New(0), core.DefaultConfig(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	update := os.Getenv("ILSIM_UPDATE_GOLDEN") != ""
	if update {
		fmt.Println("var goldenFingerprints = map[string]string{")
	}
	for _, name := range res.Order {
		p := res.Runs[name]
		for _, r := range []*struct {
			abs string
			sum [32]byte
		}{
			{"HSAIL", sha256.Sum256(p.HSAIL.Fingerprint())},
			{"GCN3", sha256.Sum256(p.GCN3.Fingerprint())},
		} {
			key := name + "/" + r.abs
			got := hex.EncodeToString(r.sum[:])
			if update {
				fmt.Printf("\t%q: %q,\n", key, got)
				continue
			}
			want, ok := goldenFingerprints[key]
			if !ok {
				t.Errorf("%s: no golden fingerprint committed", key)
				continue
			}
			if got != want {
				t.Errorf("%s: fingerprint drifted: got %s want %s", key, got, want)
			}
		}
	}
	if update {
		fmt.Println("}")
		t.Skip("golden update mode: printed fingerprints, skipping comparison")
	}
}
