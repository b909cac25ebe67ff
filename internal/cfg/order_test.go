package cfg

import (
	"slices"
	"testing"

	"ctdf/internal/workloads"
)

// scanForwardOrder is the reference ForwardOrder replaced: at each step
// it rescans every ID in ascending order for the smallest unprocessed
// node whose forward predecessors are all processed. Quadratic, but
// obviously smallest-ready-first.
func scanForwardOrder(g *Graph) ([]int, bool) {
	n := g.Len()
	isBackPred := func(node, pred int) bool {
		nd := g.Nodes[node]
		return nd.Kind == KindLoopEntry && nd.BackPreds[pred]
	}
	processed := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		pick := -1
		for _, id := range g.SortedIDs() {
			if processed[id] {
				continue
			}
			ready := true
			for _, p := range g.Nodes[id].Preds {
				if !processed[p] && !isBackPred(id, p) {
					ready = false
					break
				}
			}
			if ready {
				pick = id
				break
			}
		}
		if pick == -1 {
			return order, false
		}
		processed[pick] = true
		order = append(order, pick)
	}
	return order, true
}

// irreducibleTail is a two-entry loop (jumps into the middle of a loop,
// paper footnote 5) appended to generated programs; q is its counter.
const irreducibleTail = `
q := 0
if v0 > 2 then goto ia else goto ib
ia:
q := q + 1
v0 := v0 + q
if q < 6 then goto ib else goto iout
ib:
q := q + 1
v1 := v1 - q
if q < 6 then goto ia else goto iout
iout:
v0 := v0 + v1
`

// loopControlled builds src and runs the front half of the pipeline:
// code copying for irreducible regions, then loop control. It also
// returns the number of nodes code copying added.
func loopControlled(t *testing.T, name, src string) (*Graph, int) {
	t.Helper()
	g, err := Build(workloads.Workload{Name: name, Source: src}.Parse())
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	g, copies, err := MakeReducible(g)
	if err != nil {
		t.Fatalf("%s: make reducible: %v", name, err)
	}
	lc, _, err := InsertLoopControl(g)
	if err != nil {
		t.Fatalf("%s: loop control: %v", name, err)
	}
	return lc, copies
}

func TestForwardOrderMatchesScan(t *testing.T) {
	type tc struct {
		name, src   string
		irreducible bool
	}
	var cases []tc
	add := func(w workloads.Workload) { cases = append(cases, tc{w.Name, w.Source, false}) }
	for seed := int64(0); seed < 25; seed++ {
		add(workloads.Random(seed, 6, 3))
		add(workloads.RandomUnstructured(seed, 4))
		add(workloads.RandomProcs(seed, 3))
		w := workloads.RandomUnstructured(seed, 3)
		cases = append(cases, tc{w.Name + "+irreducible", "var q\n" + w.Source + irreducibleTail, true})
	}
	for _, c := range cases {
		g, copies := loopControlled(t, c.name, c.src)
		if c.irreducible && copies == 0 {
			t.Fatalf("%s: irreducible tail copied no code", c.name)
		}
		want, wantOK := scanForwardOrder(g)
		got, ok := g.ForwardOrder()
		if !wantOK || !ok {
			t.Fatalf("%s: no forward order (scan ok=%v, ForwardOrder ok=%v)", c.name, wantOK, ok)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ForwardOrder\n got %v\nwant %v", c.name, got, want)
		}
	}
}

func TestForwardOrderUnbrokenCycle(t *testing.T) {
	// Without loop control a loop's back edge is an ordinary forward
	// edge, so the header and its body wait on each other forever.
	w := workloads.RandomUnstructured(1, 3)
	for _, c := range []struct{ name, src string }{
		{"while", "var i, s\ns := 1\nwhile i < 3 { s := s + i\ni := i + 1 }\ns := s * 2\n"},
		{"irreducible", "var q\n" + w.Source + irreducibleTail},
	} {
		g, err := Build(workloads.Workload{Name: c.name, Source: c.src}.Parse())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		order, ok := g.ForwardOrder()
		want, wantOK := scanForwardOrder(g)
		if ok || wantOK {
			t.Fatalf("%s: raw cyclic CFG ordered (ok=%v, scan ok=%v)", c.name, ok, wantOK)
		}
		// Both stop at the same point, having ordered the nodes ahead of
		// the cycle.
		if len(order) == 0 || !slices.Equal(order, want) {
			t.Fatalf("%s: partial order\n got %v\nwant %v", c.name, order, want)
		}
	}
}
