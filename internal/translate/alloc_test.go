package translate

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/lang"
)

// doublingChain is a doubling-call chain: d0 updates its formals and each
// d(i) calls d(i-1) twice, so inlining expands the one call in the main
// body into 2^depth copies of d0.
func doublingChain(depth int) string {
	var b strings.Builder
	b.WriteString("var a, b\nproc d0(x, y) {\n  x := x * 3 + y\n  y := y + 5\n}\n")
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "proc d%d(x, y) {\n  call d%d(x, y)\n  call d%d(y, x)\n}\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "a := 2\nb := 7\ncall d%d(a, b)\n", depth)
	return b.String()
}

// translateBytes returns the bytes allocated by one Translate of the
// doubling chain of the given depth.
func translateBytes(t *testing.T, depth int) uint64 {
	t.Helper()
	g, err := cfg.Build(lang.MustParse(doublingChain(depth)))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Translate(g, Options{Schema: Schema2Opt, EliminateMemory: true}); err != nil {
		t.Fatalf("depth %d: %v", depth, err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTranslateAllocGrowth gates translation against superlinear
// allocation. One more level of the doubling chain doubles the CFG, so
// linear work doubles the bytes allocated; a whole-graph scan per node
// quadruples them. The bound sits between the two.
func TestTranslateAllocGrowth(t *testing.T) {
	const maxGrowth = 2.5
	b10, b11 := translateBytes(t, 10), translateBytes(t, 11)
	growth := float64(b11) / float64(b10)
	t.Logf("Translate allocates %.1f MB at depth 10, %.1f MB at depth 11 (x%.2f)",
		float64(b10)/(1<<20), float64(b11)/(1<<20), growth)
	if growth > maxGrowth {
		t.Errorf("Translate allocation grows x%.2f per depth level, want at most x%.1f", growth, maxGrowth)
	}
}
