package report

import (
	"fmt"

	"ilsim/internal/workloads"
)

// fig3 renders the paper's Figure 3 walkthrough from the suite's two
// workloads.Fig3 runs: the if-else-if kernel whose HSAIL execution needs
// exactly three reconvergence-stack redirects while the predicated GCN3 code
// runs the whole construct with none. The listings come from finalizing the
// kernel again, which is why it can fail.
func (r *Results) fig3(_ *section, t *table) error {
	w := workloads.Fig3()
	inst, err := w.Prepare(r.Scale)
	if err != nil {
		return err
	}
	ks := inst.Kernels[0]
	p := r.Runs[w.Name]

	t.b.WriteString("The paper's if-else-if example, with lanes split across all three paths.\n")
	fmt.Fprintf(&t.b, "Front-end redirects for one divergent wavefront: **HSAIL %d** "+
		"(the paper's three simulator-initiated jumps: the jump to the taken "+
		"path, the pop to the divergent path, and the final pop to the "+
		"reconvergence point; the branch straight to the RPC in BB2 costs "+
		"none), **GCN3 %d** (predication; both bypass branches fall "+
		"through).\n\n", p.HSAIL.Redirects, p.GCN3.Redirects)
	t.b.WriteString("HSAIL (reconvergence stack drives control flow):\n\n```\n" + ks.HSAIL.Disassemble() + "```\n")
	t.b.WriteString("\nGCN3 (EXEC-mask flips; branches only bypass empty paths):\n\n```\n" + ks.GCN3.Program.Disassemble() + "```\n")
	return nil
}
