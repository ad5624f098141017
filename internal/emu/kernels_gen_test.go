package emu

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"sort"
	"strings"
	"testing"
)

// This file is the source of kernels_gen.go: one row per whole-wave kernel,
// giving the operation, the data types that share the kernel, the value
// class of each operand and one Go statement list computing the lane result
// r from the lane operands a, b, c. TestKernelsGenerated expands every row
// into the two-loop kernel shape and fails when the committed file differs;
//
//	ILSIM_UPDATE_GOLDEN=1 go test -run TestKernelsGenerated ./internal/emu
//
// rewrites it. The rows restate alu.go; TestKernelsMatchScalarALU and
// FuzzLaneKernels hold every generated kernel to that scalar oracle.

// laneClass is how a kernel views an operand: Go type, load from the lo/hi
// register arrays, store back.
type laneClass struct {
	goType string
	wide   bool
	load   string // printf: %[1]s = operand letter
	store  string // stores r
}

var laneClasses = map[string]laneClass{
	"u32": {"uint32", false, "%[1]s0[l]", "d0[l] = r"},
	"s32": {"int32", false, "int32(%[1]s0[l])", "d0[l] = uint32(r)"},
	"f32": {"float32", false, "math.Float32frombits(%[1]s0[l])", "d0[l] = math.Float32bits(r)"},
	"u64": {"uint64", true, "uint64(%[1]s0[l]) | uint64(%[1]s1[l])<<32", "d0[l], d1[l] = uint32(r), uint32(r>>32)"},
	"s64": {"int64", true, "int64(uint64(%[1]s0[l]) | uint64(%[1]s1[l])<<32)", "d0[l], d1[l] = uint32(r), uint32(uint64(r)>>32)"},
	"f64": {"float64", true, "math.Float64frombits(uint64(%[1]s0[l]) | uint64(%[1]s1[l])<<32)",
		"v := math.Float64bits(r)\nd0[l], d1[l] = uint32(v), uint32(v>>32)"},
}

// classTypes lists the isa.DataType names that share a class's kernels.
// Integer operations that do not depend on signedness list the signed type
// under the unsigned class themselves (see ints).
var classTypes = map[string][]string{
	"u32": {"TypeU32", "TypeB32"}, "s32": {"TypeS32"},
	"u64": {"TypeU64", "TypeB64"}, "s64": {"TypeS64"},
	"f32": {"TypeF32"}, "f64": {"TypeF64"},
}

// kernelRow describes one generated kernel.
type kernelRow struct {
	table string   // "lane", "cmp" or "cvt"
	key   string   // first table index: laneOp, CmpOp or destination type name
	types []string // second table index: every type mapping to this kernel
	name  string
	in    []string // operand classes
	out   string   // result class; "" for mask-only kernels
	body  string   // statements over a, b, c (and mask, m, l) defining r
}

func title(s string) string { return strings.ToUpper(s[:1]) + s[1:] }

// ints returns the types of an integer class plus, when signedness does not
// change the result bits, the signed sibling.
func ints(class string, signAgnostic bool) []string {
	t := append([]string(nil), classTypes[class]...)
	if signAgnostic {
		t = append(t, classTypes["s"+class[1:]]...)
	}
	return t
}

func kernelRows() []kernelRow {
	var rows []kernelRow
	lane := func(op, suffix string, types []string, in []string, out, body string) {
		rows = append(rows, kernelRow{table: "lane", key: op, types: types,
			name: "k" + strings.TrimPrefix(op, "op") + suffix, in: in, out: out, body: body})
	}
	// same builds one row per listed class with every operand of that class.
	same := func(op string, nsrc int, body string, classes ...string) {
		for _, c := range classes {
			signAgnostic := strings.HasSuffix(c, "*")
			c = strings.TrimSuffix(c, "*")
			types := classTypes[c]
			if signAgnostic {
				types = ints(c, true)
			}
			in := make([]string, nsrc)
			for i := range in {
				in[i] = c
			}
			lane(op, title(c), types, in, c, body)
		}
	}

	lane("opMov", "32", []string{"TypeB32", "TypeU32", "TypeS32", "TypeF32"}, []string{"u32"}, "u32", "r := a")
	lane("opMov", "64", []string{"TypeB64", "TypeU64", "TypeS64", "TypeF64"}, []string{"u64"}, "u64", "r := a")

	same("opAdd", 2, "r := a + b", "u32*", "u64*", "f32", "f64")
	same("opSub", 2, "r := a - b", "u32*", "u64*", "f32", "f64")
	same("opMul", 2, "r := a * b", "u32*", "u64*", "f32", "f64")

	same("opMulHi", 2, "r := uint32(uint64(a) * uint64(b) >> 32)", "u32")
	same("opMulHi", 2, "r := int32(int64(a) * int64(b) >> 32)", "s32")
	same("opMulHi", 2, "r, _ := bits.Mul64(a, b)", "u64")
	same("opMulHi", 2, "r := mulHiS64(a, b)", "s64")

	same("opDiv", 2, "r := ^uint32(0)\nif b != 0 {\nr = a / b\n}", "u32")
	same("opDiv", 2, "r := int32(-1)\nif b != 0 {\nr = a / b\n}", "s32")
	same("opDiv", 2, "r := ^uint64(0)\nif b != 0 {\nr = a / b\n}", "u64")
	same("opDiv", 2, "r := int64(-1)\nif b != 0 {\nr = a / b\n}", "s64")
	same("opDiv", 2, "r := a / b", "f32", "f64")
	same("opRem", 2, "r := a\nif b != 0 {\nr = a % b\n}", "u32", "s32", "u64", "s64")

	same("opMin", 2, "r := b\nif a < b {\nr = a\n}", "u32", "s32", "u64", "s64")
	same("opMax", 2, "r := b\nif a > b {\nr = a\n}", "u32", "s32", "u64", "s64")
	same("opMin", 2, "r := float32(math.Min(float64(a), float64(b)))", "f32")
	same("opMax", 2, "r := float32(math.Max(float64(a), float64(b)))", "f32")
	same("opMin", 2, "r := math.Min(a, b)", "f64")
	same("opMax", 2, "r := math.Max(a, b)", "f64")

	same("opAnd", 2, "r := a & b", "u32*", "u64*")
	same("opOr", 2, "r := a | b", "u32*", "u64*")
	same("opXor", 2, "r := a ^ b", "u32*", "u64*")

	// Shift amounts are 32-bit operands whatever the shifted type: only
	// their low five or six bits count.
	lane("opShl", "U32", ints("u32", true), []string{"u32", "u32"}, "u32", "r := a << (b & 31)")
	lane("opShl", "U64", ints("u64", true), []string{"u64", "u32"}, "u64", "r := a << (b & 63)")
	lane("opShr", "U32", classTypes["u32"], []string{"u32", "u32"}, "u32", "r := a >> (b & 31)")
	lane("opShr", "S32", classTypes["s32"], []string{"s32", "u32"}, "s32", "r := a >> (b & 31)")
	lane("opShr", "U64", classTypes["u64"], []string{"u64", "u32"}, "u64", "r := a >> (b & 63)")
	lane("opShr", "S64", classTypes["s64"], []string{"s64", "u32"}, "s64", "r := a >> (b & 63)")

	same("opFma", 3, "r := a*b + c", "u32*", "u64*")
	same("opFma", 3, "r := float32(math.FMA(float64(a), float64(b), float64(c)))", "f32")
	same("opFma", 3, "r := math.FMA(a, b, c)", "f64")

	// abs of an unsigned value is a move: those table slots reuse kMov.
	same("opAbs", 1, "r := a\nif a < 0 {\nr = -a\n}", "s32", "s64")
	same("opAbs", 1, "r := float32(math.Abs(float64(a)))", "f32")
	same("opAbs", 1, "r := math.Abs(a)", "f64")
	same("opNeg", 1, "r := -a", "u32*", "u64*", "f32", "f64")
	same("opNot", 1, "r := ^a", "u32*", "u64*")
	same("opSqrt", 1, "r := float32(math.Sqrt(float64(a)))", "f32")
	same("opSqrt", 1, "r := math.Sqrt(a)", "f64")
	same("opRsqrt", 1, "r := float32(1 / math.Sqrt(float64(a)))", "f32")
	same("opRsqrt", 1, "r := 1 / math.Sqrt(a)", "f64")
	same("opRcp", 1, "r := 1 / a", "f32", "f64")

	sel := "r := b\nif mask>>uint(l)&1 != 0 {\nr = a\n}"
	lane("opSel", "32", []string{"TypeB32", "TypeU32", "TypeS32", "TypeF32"}, []string{"u32", "u32"}, "u32", sel)
	lane("opSel", "64", []string{"TypeB64", "TypeU64", "TypeS64", "TypeF64"}, []string{"u64", "u64"}, "u64", sel)

	same("opDivFixup", 3, "r := a\nif b == 0 && c == 0 {\nr = nan32()\n} else if b == 0 || c == 0 {\nr = c / b\n}", "f32")
	same("opDivFixup", 3, "r := a\nif b == 0 && c == 0 {\nr = nan64()\n} else if b == 0 || c == 0 {\nr = c / b\n}", "f64")

	// The carry forms exist for u32 only (v_add_u32, v_sub_u32, v_addc_u32).
	u32x2, u32 := []string{"u32", "u32"}, []string{"TypeU32"}
	lane("opAddCO", "", u32, u32x2, "u32", "r := a + b\nif r < a {\nm |= 1 << uint(l)\n}")
	lane("opSubBO", "", u32, u32x2, "u32", "r := a - b\nif b > a {\nm |= 1 << uint(l)\n}")
	lane("opAddC", "", u32, u32x2, "u32",
		"s := uint64(a) + uint64(b) + mask>>uint(l)&1\nr := uint32(s)\nif s > 0xFFFFFFFF {\nm |= 1 << uint(l)\n}")

	classes := []string{"u32", "s32", "u64", "s64", "f32", "f64"}
	for _, c := range [][2]string{{"Eq", "=="}, {"Ne", "!="}, {"Lt", "<"}, {"Le", "<="}, {"Gt", ">"}, {"Ge", ">="}} {
		for _, cl := range classes {
			rows = append(rows, kernelRow{table: "cmp", key: "isa.Cmp" + c[0], types: classTypes[cl],
				name: "kCmp" + c[0] + title(cl), in: []string{cl, cl},
				body: fmt.Sprintf("if a %s b {\nm |= 1 << uint(l)\n}", c[1])})
		}
	}

	// Conversions normalise the source to a float64, an int64 and a uint64
	// view and narrow the one the destination wants (alu.go convert).
	views := map[string][3]string{ // asF, asI, asU
		"f32": {"float64(a)", "int64(float64(a))", "uint64(float64(a))"},
		"f64": {"a", "int64(a)", "uint64(a)"},
		"s32": {"float64(int64(a))", "int64(a)", "uint64(int64(a))"},
		"s64": {"float64(a)", "a", "uint64(a)"},
		"u32": {"float64(uint64(a))", "int64(uint64(a))", "uint64(a)"},
		"u64": {"float64(a)", "int64(a)", "a"},
	}
	narrow := map[string]string{
		"f32": "float32(%[1]s)", "f64": "%[1]s", "s32": "int32(%[2]s)",
		"s64": "%[2]s", "u32": "uint32(%[3]s)", "u64": "%[3]s",
	}
	for _, d := range classes {
		for _, s := range classes {
			v := views[s]
			for _, dt := range classTypes[d] {
				// One row per destination type: the cvt table's first
				// index is a type, not a class.
				rows = append(rows, kernelRow{table: "cvt", key: "isa." + dt, types: classTypes[s],
					name: "kCvt" + title(d) + title(s), in: []string{s}, out: d,
					body: "r := " + fmt.Sprintf(narrow[d], v[0], v[1], v[2])})
			}
		}
	}
	return rows
}

// emitKernel writes one kernel function.
func emitKernel(w *bytes.Buffer, r kernelRow) {
	usesMask := strings.Contains(r.body, "mask")
	returnsMask := strings.Contains(r.body, "m |=")
	fmt.Fprintf(w, "func %s(x *laneArgs, exec uint64) uint64 {\n", r.name)
	rangeOver := "a0"
	if r.out != "" {
		rangeOver = "d0"
		fmt.Fprintf(w, "d0 := x.dst.lo\n")
		if laneClasses[r.out].wide {
			fmt.Fprintf(w, "d1 := x.dst.hi\n")
		}
	}
	var loads []string
	for i, c := range r.in {
		letter := string(rune('a' + i))
		fmt.Fprintf(w, "%s0 := x.src[%d].lo\n", letter, i)
		if laneClasses[c].wide {
			fmt.Fprintf(w, "%s1 := x.src[%d].hi\n", letter, i)
		}
		loads = append(loads, fmt.Sprintf("%s := "+laneClasses[c].load, letter))
	}
	if usesMask {
		fmt.Fprintf(w, "mask := x.mask\n")
	}
	ret := "0"
	if returnsMask {
		fmt.Fprintf(w, "var m uint64\n")
		ret = "m"
	}
	lane := strings.Join(loads, "\n") + "\n" + r.body + "\n"
	if r.out != "" {
		lane += laneClasses[r.out].store + "\n"
	}
	fmt.Fprintf(w, "if exec == fullExec {\nfor l := range %s {\n%s}\nreturn %s\n}\n", rangeOver, lane, ret)
	fmt.Fprintf(w, "for e := exec; e != 0; e &= e - 1 {\nl := bits.TrailingZeros64(e) & 63\n%s}\nreturn %s\n}\n\n", lane, ret)
}

// emitTable writes one table literal, rows grouped by first index.
func emitTable(w *bytes.Buffer, decl string, rows []kernelRow, table string, extra map[string][]string) {
	byKey := map[string][]string{}
	var keys []string
	add := func(key, entry string) {
		if _, ok := byKey[key]; !ok {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], entry)
	}
	for _, r := range rows {
		if r.table != table {
			continue
		}
		for _, t := range r.types {
			add(r.key, fmt.Sprintf("isa.%s: %s", t, r.name))
		}
	}
	for key, entries := range extra {
		for _, e := range entries {
			add(key, e)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s{\n", decl)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: {%s},\n", k, strings.Join(byKey[k], ", "))
	}
	fmt.Fprintf(w, "}\n\n")
}

func generateKernels() ([]byte, error) {
	rows := kernelRows()
	var w bytes.Buffer
	w.WriteString("// Code generated by TestKernelsGenerated from the rows in kernels_gen_test.go; DO NOT EDIT.\n")
	w.WriteString("// Regenerate with: ILSIM_UPDATE_GOLDEN=1 go test -run TestKernelsGenerated ./internal/emu\n\n")
	w.WriteString("package emu\n\nimport (\n\"math\"\n\"math/bits\"\n\n\"ilsim/internal/isa\"\n)\n\n")
	emitTable(&w, "var laneKernels = [numLaneOps][numLaneTypes]laneKernel", rows, "lane", map[string][]string{
		"opAbs": {"isa.TypeU32: kMov32", "isa.TypeB32: kMov32", "isa.TypeU64: kMov64", "isa.TypeB64: kMov64"},
	})
	emitTable(&w, "var cmpKernels = [numCmpOps][numLaneTypes]laneKernel", rows, "cmp", nil)
	emitTable(&w, "var cvtKernels = [numLaneTypes][numLaneTypes]laneKernel", rows, "cvt", nil)
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.name] {
			continue // one cvt kernel serves both destination types of its class
		}
		seen[r.name] = true
		emitKernel(&w, r)
	}
	return format.Source(w.Bytes())
}

func TestKernelsGenerated(t *testing.T) {
	const path = "kernels_gen.go"
	want, err := generateKernels()
	if err != nil {
		t.Fatalf("generated source does not parse: %v", err)
	}
	if os.Getenv("ILSIM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is stale: regenerate with ILSIM_UPDATE_GOLDEN=1 go test -run TestKernelsGenerated ./internal/emu", path)
	}
}
