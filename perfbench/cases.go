package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ctdf"
	"ctdf/internal/workloads"
)

// benchCase is one input of a workload: a program, how it is compiled and
// run, and the reference store its jobs are checked against.
type benchCase struct {
	name    string // class and size, unique within the workload
	class   string
	seed    int64 // generator seed, printed with any mismatch
	src     string
	binding map[string]string
	opts    ctdf.Options
	ref     string // final store from Program.Interpret, computed in setup

	// graph is compiled during setup for every workload but compile.
	graph *ctdf.Dataflow
	// setupErr records a setup-time mismatch; every job on the case then
	// counts as failed.
	setupErr string

	// Deterministic counts of one run of the case, filled the first time
	// it runs.
	counted                bool
	nodes, cycles, firings int

	// lay holds the internal pipeline's artifacts and per-layer counts;
	// traced runs only.
	lay *layerCounts
}

// Translation options shared by the workloads. The optimized schemas are
// what `ctdf run` is used with; aliased programs need Schema 3.
var (
	optsSchema2 = ctdf.Options{Schema: ctdf.Schema2Opt, EliminateMemory: true, Optimize: 1}
	optsSchema3 = ctdf.Options{Schema: ctdf.Schema3Opt, Optimize: 1}
)

// caseList builds a workload's cases with per-case generator seeds
// derived from the run's seed.
type caseList struct {
	seed  int64
	cases []*benchCase
}

func (l *caseList) next() int64 { return l.seed*1_000_003 + int64(len(l.cases)) + 1 }

func (l *caseList) add(class string, size int, seed int64, src string, binding map[string]string, opts ctdf.Options) {
	l.cases = append(l.cases, &benchCase{
		name: fmt.Sprintf("%s-%d", class, size), class: class, seed: seed,
		src: src, binding: binding, opts: opts,
	})
}

// compileCases: a stratified mix, two programs per size step, so that
// every seed draws the same shape of work and only program contents vary.
// Doubling chains appear once per depth: their cost is set by the depth.
func compileCases(seed int64) []*benchCase {
	l := &caseList{seed: seed}
	for rep := 0; rep < 2; rep++ {
		for size := 16; size <= 48; size += 4 {
			s := l.next()
			l.add(classStructured, size, s, genStructured(s, size), nil, optsSchema2)
		}
		for n := 6; n <= 22; n += 2 {
			s := l.next()
			l.add(classUnstructured, n, s, genUnstructured(s, n, true), nil, optsSchema2)
		}
		for size := 16; size <= 32; size += 2 {
			s := l.next()
			src, b := genAliased(s, size, len(l.cases))
			l.add(classAliased, size, s, src, b, optsSchema3)
		}
	}
	for calls := 4; calls <= 24; calls += 4 {
		s := l.next()
		l.add(classProcedure, calls, s, genProcedures(s, calls), nil, optsSchema2)
	}
	for depth := 5; depth <= 11; depth++ {
		s := l.next()
		l.add(classProcedure, 1000+depth, s, genDoubling(s, depth), nil, optsSchema2)
	}
	return l.cases
}

// verifyCases: the compile generators capped at size 24, every other
// graph optimized so that vet checks the optimizer's certificate.
// Unstructured programs here use only the reducible goto patterns: vet
// reports determinacy errors on every code-copied irreducible graph,
// including the repository's own irreducible-two-entry fixture, although
// every engine computes the right store on them (see README.md).
func verifyCases(seed int64) []*benchCase {
	l := &caseList{seed: seed}
	optimize := func(o ctdf.Options) ctdf.Options {
		o.Optimize = len(l.cases) % 2
		return o
	}
	for rep := 0; rep < 2; rep++ {
		for size := 16; size <= 24; size += 2 {
			s := l.next()
			l.add(classStructured, size, s, genStructured(s, size), nil, optimize(optsSchema2))
		}
		for n := 6; n <= 12; n += 2 {
			s := l.next()
			l.add(classUnstructured, n, s, genUnstructured(s, n, false), nil, optimize(optsSchema2))
		}
		for size := 16; size <= 24; size += 2 {
			s := l.next()
			src, b := genAliased(s, size, len(l.cases))
			l.add(classAliased, size, s, src, b, optimize(optsSchema3))
		}
	}
	for calls := 4; calls <= 24; calls += 4 {
		s := l.next()
		l.add(classProcedure, calls, s, genProcedures(s, calls), nil, optimize(optsSchema2))
	}
	for depth := 5; depth <= 9; depth++ {
		s := l.next()
		l.add(classProcedure, 1000+depth, s, genDoubling(s, depth), nil, optimize(optsSchema2))
	}
	return l.cases
}

// executeKernels names every non-procedure paper example and classic
// kernel. The list is fixed here so that a kernel added to
// internal/workloads does not change this workload.
var executeKernels = []string{
	"running-example", "fig9-bypass", "fig14-array-stores", "fortran-alias",
	"straightline", "independent-chains", "diamond", "fib-iterative", "gcd",
	"nested-loops", "array-sum", "prefix-recurrence", "matmul-2x2-flat",
	"unstructured-two-exit", "unstructured-skip", "early-exit-goto-end",
	"aliased-swap", "aliased-arrays", "loop-external-consumer",
	"producer-consumer", "cover-tradeoff", "read-heavy", "bubble-sort",
	"sieve", "collatz-bounded", "deep-expression",
}

var executeConfigs = []struct {
	name string
	opts ctdf.Options
}{
	{"schema1", ctdf.Options{Schema: ctdf.Schema1}},
	{"schema2", ctdf.Options{Schema: ctdf.Schema2}},
	{"schema2-opt", ctdf.Options{Schema: ctdf.Schema2Opt}},
	{"schema2-opt+elim+opt", optsSchema2},
	{"schema3-opt+opt", optsSchema3},
}

// executeCases: every kernel under every configuration. The kernels are
// fixed, so the seed only orders the jobs.
func executeCases(int64) []*benchCase {
	var out []*benchCase
	for _, name := range executeKernels {
		w, err := workloads.ByName(name)
		if err != nil {
			panic(err) // the list above names committed kernels
		}
		for _, c := range executeConfigs {
			out = append(out, &benchCase{
				name: name + "/" + c.name, class: classKernel,
				src: w.Source, opts: c.opts,
			})
		}
	}
	return out
}

// shardedCases: two wide lane-counter programs, whose issue width keeps
// both shards busy, and one random structured program.
func shardedCases(seed int64) []*benchCase {
	l := &caseList{seed: seed}
	opts := ctdf.Options{Schema: ctdf.Schema2Opt}
	s := l.next()
	l.add(classWide, 6460, s, genWide(s, 64, 60), nil, opts)
	s = l.next()
	l.add(classWide, 32120, s, genWide(s, 32, 120), nil, opts)
	s = l.next()
	l.add(classStructured, 32, s, genStructured(s, 32), nil, opts)
	return l.cases
}

// digest identifies a workload's input set: two runs are comparable only
// when their digests match.
func digest(cases []*benchCase) string {
	h := sha256.New()
	for _, c := range cases {
		keys := make([]string, 0, len(c.binding))
		for k := range c.binding {
			keys = append(keys, k+"="+c.binding[k])
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00%+v\x00%s\x00%s\x00", c.name, c.class, c.seed, c.opts, strings.Join(keys, ","), c.src)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// classCounts summarizes a case set as "class:n" pairs.
func classCounts(cases []*benchCase) string {
	n := map[string]int{}
	var order []string
	for _, c := range cases {
		if n[c.class] == 0 {
			order = append(order, c.class)
		}
		n[c.class]++
	}
	parts := make([]string, len(order))
	for i, cl := range order {
		parts[i] = fmt.Sprintf("%s:%d", cl, n[cl])
	}
	return strings.Join(parts, ",")
}

// shuffled returns a seeded permutation of the case indices; jobs run
// passes over the cases in this order.
func shuffled(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
