package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The benchmark owns its inputs: every generated program below comes from
// this file and a seed, so a change to the repository's own generators
// (internal/workloads) cannot silently change what the benchmark measures.
//
// Each generator has a fixed skeleton: the statement kinds, their nesting
// and every loop's trip count follow from the size arguments alone. The
// seed picks the contents — variables, operators, constants, leaf kinds —
// so programs differ between seeds while the work per size stays close,
// which keeps run-to-run figures comparable across seeds. Every program
// terminates by construction: each cycle is bounded by a dedicated
// counter that nothing else assigns, and no expression divides.

// Program classes, printed with every mismatch.
const (
	classStructured   = "structured"
	classUnstructured = "unstructured"
	classAliased      = "aliased"
	classProcedure    = "procedure"
	classKernel       = "kernel"
	classWide         = "wide"
)

const (
	numScalars = 5
	arrSize    = 8
	// tripCount bounds every generated loop; nests are at most three
	// deep, so a statement runs at most 27 times.
	tripCount = 3
)

// progGen emits statements over a pool of scalars and one array.
type progGen struct {
	r        *rand.Rand
	scalars  []string
	counters []string
	labels   int
	assigns  int
}

func newProgGen(seed int64) *progGen {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	for i := 0; i < numScalars; i++ {
		g.scalars = append(g.scalars, fmt.Sprintf("v%d", i))
	}
	return g
}

func (g *progGen) v() string { return g.scalars[g.r.Intn(len(g.scalars))] }

func (g *progGen) index() string {
	return fmt.Sprintf("arr[(%s %% %d + %d) %% %d]", g.v(), arrSize, arrSize, arrSize)
}

func (g *progGen) counter() string {
	c := fmt.Sprintf("c%d", len(g.counters))
	g.counters = append(g.counters, c)
	return c
}

func (g *progGen) label() string {
	g.labels++
	return fmt.Sprintf("L%d", g.labels)
}

// expr is a full binary tree of the given depth with random operators and
// leaves.
func (g *progGen) expr(depth int) string {
	if depth == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprint(g.r.Intn(20))
		case 1:
			return g.v()
		default:
			return g.index()
		}
	}
	op := []string{"+", "-", "*"}[g.r.Intn(3)]
	return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
}

func (g *progGen) cond() string {
	op := []string{"<", "<=", ">", ">=", "==", "!="}[g.r.Intn(6)]
	return fmt.Sprintf("%s %s %s", g.v(), op, g.expr(1))
}

// assign emits a scalar assignment, or an array store every fourth time.
func (g *progGen) assign(b *strings.Builder) {
	g.assigns++
	if g.assigns%4 == 0 {
		fmt.Fprintf(b, "%s := %s\n", g.index(), g.expr(2))
	} else {
		fmt.Fprintf(b, "%s := %s\n", g.v(), g.expr(2))
	}
}

// block emits size statements; every fourth one is, in turn, an if, an
// if-else or a counted loop around nested blocks of three.
func (g *progGen) block(b *strings.Builder, size, depth int) {
	for i := 0; i < size; i++ {
		if depth == 0 || i%4 != 2 {
			g.assign(b)
			continue
		}
		switch (i / 4) % 3 {
		case 0:
			fmt.Fprintf(b, "if %s {\n", g.cond())
			g.block(b, 3, depth-1)
			b.WriteString("}\n")
		case 1:
			fmt.Fprintf(b, "if %s {\n", g.cond())
			g.block(b, 3, depth-1)
			b.WriteString("} else {\n")
			g.block(b, 3, depth-1)
			b.WriteString("}\n")
		default:
			c := g.counter()
			fmt.Fprintf(b, "%s := 0\nwhile %s < %d {\n", c, c, tripCount)
			g.block(b, 3, depth-1)
			fmt.Fprintf(b, "%s := %s + 1\n}\n", c, c)
		}
	}
}

// pattern emits goto construct kind. Kind 4 is a two-entry loop: the
// irreducible shape the translator must copy code for (paper footnote 5).
func (g *progGen) pattern(b *strings.Builder, kind int) {
	switch kind {
	case 0: // forward skip
		skip, cont := g.label(), g.label()
		fmt.Fprintf(b, "if %s then goto %s else goto %s\n%s:\n", g.cond(), skip, cont, cont)
		g.assign(b)
		g.assign(b)
		fmt.Fprintf(b, "%s:\n", skip)
		g.assign(b)
	case 1: // diamond closed by an unstructured join
		l1, l2, l3 := g.label(), g.label(), g.label()
		fmt.Fprintf(b, "if %s then goto %s else goto %s\n%s:\n", g.cond(), l1, l2, l1)
		g.assign(b)
		fmt.Fprintf(b, "goto %s\n%s:\n", l3, l2)
		g.assign(b)
		g.assign(b)
		fmt.Fprintf(b, "%s:\n", l3)
		g.assign(b)
	case 2: // counted loop with a data-dependent early exit
		c := g.counter()
		top, cont, early, done, after := g.label(), g.label(), g.label(), g.label(), g.label()
		fmt.Fprintf(b, "%s := 0\n%s:\n%s := %s + 1\n", c, top, c, c)
		g.assign(b)
		fmt.Fprintf(b, "if %s then goto %s else goto %s\n%s:\n", g.cond(), early, cont, cont)
		g.assign(b)
		fmt.Fprintf(b, "if %s < %d then goto %s else goto %s\n%s:\n", c, tripCount, top, done, early)
		g.assign(b)
		fmt.Fprintf(b, "goto %s\n%s:\n", after, done)
		g.assign(b)
		fmt.Fprintf(b, "%s:\n", after)
	case 3: // counted loop with two back edges
		c := g.counter()
		top, mid, out := g.label(), g.label(), g.label()
		fmt.Fprintf(b, "%s := 0\n%s:\n%s := %s + 1\n", c, top, c, c)
		fmt.Fprintf(b, "if %s < %d then goto %s else goto %s\n%s:\n", c, tripCount, top, mid, mid)
		g.assign(b)
		fmt.Fprintf(b, "if %s < %d then goto %s else goto %s\n%s:\n", c, tripCount, top, out, out)
		g.assign(b)
	default: // two-entry (irreducible) loop
		c := g.counter()
		x, y, out := g.label(), g.label(), g.label()
		fmt.Fprintf(b, "%s := 0\nif %s then goto %s else goto %s\n", c, g.cond(), x, y)
		fmt.Fprintf(b, "%s:\n%s := %s + 1\n", x, c, c)
		g.assign(b)
		fmt.Fprintf(b, "if %s < %d then goto %s else goto %s\n", c, 2*tripCount, y, out)
		fmt.Fprintf(b, "%s:\n%s := %s + 1\n", y, c, c)
		g.assign(b)
		fmt.Fprintf(b, "if %s < %d then goto %s else goto %s\n%s:\n", c, 2*tripCount, x, out, out)
	}
}

// decls renders the declarations for the scalars, counters and array the
// generator used, plus any extra lines (aliases).
func (g *progGen) decls(extra string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var %s\n", strings.Join(append(append([]string(nil), g.scalars...), g.counters...), ", "))
	fmt.Fprintf(&b, "array arr[%d]\n", arrSize)
	b.WriteString(extra)
	return b.String()
}

// genStructured is a structured nest of size top-level statements.
func genStructured(seed int64, size int) string {
	g := newProgGen(seed)
	var body strings.Builder
	g.block(&body, size, 3)
	return g.decls("") + body.String()
}

// genUnstructured chains goto patterns in a fixed rotation; with
// irreducible set, every fifth one is a two-entry loop.
func genUnstructured(seed int64, patterns int, irreducible bool) string {
	g := newProgGen(seed)
	kinds := 4
	if irreducible {
		kinds = 5
	}
	var body strings.Builder
	for i := 0; i < patterns; i++ {
		g.pattern(&body, i%kinds)
	}
	return g.decls("") + body.String()
}

// genAliased is a structured nest whose first scalars are declared
// aliases: v0~v1 always, plus v1~v2 (non-transitive, as in the paper's §5
// example) for odd variants. Every third variant comes with a binding
// under which v0 and v1 share one location; the others keep every name
// distinct.
func genAliased(seed int64, size, variant int) (string, map[string]string) {
	g := newProgGen(seed)
	var body strings.Builder
	g.block(&body, size, 3)
	aliases := "alias v0 ~ v1\n"
	if variant%2 == 1 {
		aliases += "alias v1 ~ v2\n"
	}
	var binding map[string]string
	if variant%3 == 0 {
		binding = map[string]string{"v1": "v0"}
	}
	return g.decls(aliases) + body.String(), binding
}

// genProcedures declares two procedures over three reference formals and
// one global, and calls them calls times. Every third call repeats an
// actual, which aliases two formals; every fourth sits in a counted loop.
func genProcedures(seed int64, calls int) string {
	g := newProgGen(seed)
	var b strings.Builder
	formals := []string{"f0", "f1", "f2"}
	scope := append(append([]string(nil), formals...), "v0")
	pick := func() string { return scope[g.r.Intn(len(scope))] }
	for p := 0; p < 2; p++ {
		fmt.Fprintf(&b, "proc p%d(%s) {\n", p, strings.Join(formals, ", "))
		for i := 0; i < 3; i++ {
			fmt.Fprintf(&b, "  %s := (%s %s %d)\n", pick(), pick(), []string{"+", "-", "*"}[g.r.Intn(3)], 1+g.r.Intn(9))
		}
		b.WriteString("}\n")
	}
	for i, v := range g.scalars {
		fmt.Fprintf(&b, "%s := %d\n", v, i+1)
	}
	for c := 0; c < calls; c++ {
		args := []string{g.v(), g.v(), g.v()}
		if c%3 == 0 {
			args[2] = args[0]
		}
		call := fmt.Sprintf("call p%d(%s)\n", c%2, strings.Join(args, ", "))
		if c%4 == 3 {
			k := g.counter()
			fmt.Fprintf(&b, "%s := 0\nwhile %s < %d {\n%s%s := %s + 1\n}\n", k, k, tripCount, call, k, k)
		} else {
			b.WriteString(call)
		}
	}
	return g.decls("") + b.String()
}

// genDoubling is a doubling-call chain: d0 updates its formals, and each
// d(i) calls d(i-1) twice, so inlining expands the single call in the
// main body into 2^depth copies of d0.
func genDoubling(seed int64, depth int) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("var a, b\n")
	fmt.Fprintf(&b, "proc d0(x, y) {\n  x := x * %d + y\n  y := y + %d\n}\n", 2+r.Intn(3), 1+r.Intn(7))
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "proc d%d(x, y) {\n  call d%d(x, y)\n  call d%d(y, x)\n}\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "a := %d\nb := %d\ncall d%d(a, b)\n", 1+r.Intn(9), 1+r.Intn(9), depth)
	return b.String()
}

// genWide is lanes independent counter loops of iters iterations each:
// the issue width stays proportional to lanes for the whole run, the
// shape the sharded machine is built for.
func genWide(seed int64, lanes, iters int) string {
	r := rand.New(rand.NewSource(seed))
	var names []string
	for l := 0; l < lanes; l++ {
		names = append(names, fmt.Sprintf("i%d", l), fmt.Sprintf("s%d", l))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "var %s\n", strings.Join(names, ", "))
	for l := 0; l < lanes; l++ {
		fmt.Fprintf(&b, "i%d := 0\nwhile i%d < %d {\n  s%d := s%d * %d + i%d + %d\n  i%d := i%d + 1\n}\n",
			l, l, iters, l, l, 2+r.Intn(3), l, r.Intn(5), l, l)
	}
	return b.String()
}
