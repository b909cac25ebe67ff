// Package opt is the post-translation graph optimizer: a pass pipeline
// that rewrites dataflow program graphs produced by internal/translate
// without changing what they compute. The paper's §4 derives switch
// placement statically, before graph construction; this package is the
// complementary direction — Figure 9's observation ("the switch and
// merge operators for y are unnecessary") generalized into graph-level
// rewrites that run on any schema's output:
//
//   - sink-switches: a switch whose both arms feed one merge, and that
//     the independently recomputed §4 minimal placement marks
//     unnecessary, is an identity together with that merge; the pair is
//     removed and the token line runs straight through (Figure 9).
//   - collapse-merges: a merge whose only consumer is another merge of
//     the same token forwards every token into it; the chain flattens
//     into the downstream merge (merge is associative), so nested joins
//     cost one merge traversal instead of two.
//   - fuse-operators: maximal single-consumer trees of pure value
//     operators (const, binop, unop) collapse into one Fused
//     super-operator that evaluates the whole tree in a single firing —
//     interior tokens stop moving through the machine entirely and the
//     tree's critical path drops to one cycle.
//   - eliminate-dead: pure value nodes whose outputs nobody consumes
//     (typically predicate chains orphaned by sink-switches) are
//     deleted, provided no producer's access-token port is left
//     unconsumed.
//
// Every structural claim the pipeline makes about switch and merge
// removals is recorded in a translate.OptCertificate; internal/vet
// validates the claims against its own recomputed placement rather than
// trusting them, so the optimized graph still passes the full
// translation-validation suite. Determinacy is preserved pass by pass:
// sinking removes an identity pair (the merge's outgoing guard is
// exactly the guard the switch's data input carried), flattening
// preserves the token multiset a merge forwards, fusion only touches
// single-consumer pure values (no other node observes the interior
// tokens), and dead elimination deletes tokens that were provably
// discarded anyway.
package opt

import (
	"fmt"

	"ctdf/internal/dfg"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
)

// maxRounds bounds the pipeline fixpoint; each round must remove at
// least one node to continue, so the true bound is the node count.
const maxRounds = 1024

// Run optimizes res.Graph in place: the rewritten graph replaces
// res.Graph, and the certificate recording what was removed is stored in
// res.Opt and returned. Graphs without translation metadata (loaded from
// text) still get the metadata-free passes (fusion, merge collapsing,
// dead elimination); switch sinking needs the CFG to recompute the
// minimal placement and is skipped without it.
func Run(res *translate.Result) (*translate.OptCertificate, error) {
	if res == nil || res.Graph == nil {
		return nil, fmt.Errorf("opt: no graph to optimize")
	}
	if len(res.Graph.Calls) > 0 {
		return nil, fmt.Errorf("opt: linked procedure graphs are not optimizable (call linkage pins node ids)")
	}
	cert := &translate.OptCertificate{
		RemovedSwitches: map[translate.StmtTok]int{},
		RemovedMerges:   map[translate.StmtTok]int{},
	}

	// The sinking work-list criterion is exactly the predicate behind
	// vet's "redundant switch" warning: the recomputed §4 placement has
	// no entry for the (fork, token) slot.
	minimal, err := vet.MinimalPlacement(res)
	if err != nil {
		minimal = nil // metadata-free graph: skip the placement-driven pass
	}

	g := res.Graph
	counts := [4]int{}
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("opt: pipeline did not reach a fixpoint after %d rounds", maxRounds)
		}
		n := 0
		if minimal != nil {
			g, err = sinkSwitches(g, minimal, cert, &counts[0], &n)
			if err != nil {
				return nil, err
			}
		}
		if g, err = collapseMerges(g, cert, &counts[1], &n); err != nil {
			return nil, err
		}
		if g, err = fuseOperators(g, &counts[2], &n); err != nil {
			return nil, err
		}
		if g, err = eliminateDead(g, res, &counts[3], &n); err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("opt: optimized graph is invalid: %w", err)
	}
	cert.Passes = []translate.PassCount{
		{Name: "sink-switches", Rewrites: counts[0]},
		{Name: "collapse-merges", Rewrites: counts[1]},
		{Name: "fuse-operators", Rewrites: counts[2]},
		{Name: "eliminate-dead", Rewrites: counts[3]},
	}
	res.Graph = g
	res.Opt = cert
	return cert, nil
}

// editor accumulates one batch of rewrites against a graph and rebuilds
// a fresh graph with dense node ids. dfg.Graph is append-only by design
// (its arc indices and target caches assume immutability), so passes
// mark deletions and additions here and the rebuild re-adds everything
// that survives, in original order — keeping pass output deterministic.
type editor struct {
	g        *dfg.Graph
	deadN    []bool
	deadA    []bool
	added    []dfg.Arc       // endpoints in old-id space (new nodes at len(g.Nodes)+i)
	newNodes []*dfg.Node     // appended nodes, ids len(g.Nodes)+i
	newFus   []dfg.FusedInfo // fusion entries for appended nodes, old-id space

	// outs[node][port] and ins[node][port] list arc indices: g's own
	// read-only arc index (dfg.Graph.ArcIndex).
	outs [][][]int
	ins  [][][]int
}

func newEditor(g *dfg.Graph) *editor {
	e := &editor{
		g:     g,
		deadN: make([]bool, len(g.Nodes)),
		deadA: make([]bool, len(g.Arcs)),
	}
	e.outs, e.ins = g.ArcIndex()
	return e
}

// addNode appends a node in old-id space and returns its provisional id.
func (e *editor) addNode(n *dfg.Node) int {
	id := len(e.g.Nodes) + len(e.newNodes)
	e.newNodes = append(e.newNodes, n)
	return id
}

// hasArc reports whether an arc with these endpoints survives the edits
// (or was added by them) — used to refuse rewrites that would create a
// duplicate arc.
func (e *editor) hasArc(from, fromPort, to, toPort int) bool {
	if from < len(e.outs) {
		for _, ai := range e.outs[from][fromPort] {
			if !e.deadA[ai] {
				a := e.g.Arcs[ai]
				if a.To == to && a.ToPort == toPort {
					return true
				}
			}
		}
	}
	for _, a := range e.added {
		if a.From == from && a.FromPort == fromPort && a.To == to && a.ToPort == toPort {
			return true
		}
	}
	return false
}

// rebuild materializes the edited graph. Surviving nodes keep their
// relative order; appended nodes follow. An arc left attached to a
// deleted node is a pass bug and fails loudly.
func (e *editor) rebuild() (*dfg.Graph, error) {
	g := e.g
	ng := dfg.NewGraph(g.Prog)
	remap := make([]int, len(g.Nodes)+len(e.newNodes))
	for i, n := range g.Nodes {
		if e.deadN[i] {
			remap[i] = -1
			continue
		}
		cp := *n
		ng.Add(&cp)
		remap[i] = cp.ID
	}
	for i, n := range e.newNodes {
		cp := *n
		ng.Add(&cp)
		remap[len(g.Nodes)+i] = cp.ID
	}
	connect := func(a dfg.Arc) error {
		from, to := remap[a.From], remap[a.To]
		if from < 0 || to < 0 {
			return fmt.Errorf("opt: internal error: arc d%d.%d→d%d.%d survives a deleted endpoint", a.From, a.FromPort, a.To, a.ToPort)
		}
		ng.Connect(from, a.FromPort, to, a.ToPort, a.Dummy)
		return nil
	}
	for ai, a := range g.Arcs {
		if e.deadA[ai] {
			continue
		}
		if err := connect(a); err != nil {
			return nil, err
		}
	}
	for _, a := range e.added {
		if err := connect(a); err != nil {
			return nil, err
		}
	}
	for i := range g.Fusions {
		fi := g.Fusions[i]
		if remap[fi.Node] < 0 {
			continue
		}
		fi.Node = remap[fi.Node]
		fi.Steps = append([]dfg.FusedOp(nil), fi.Steps...)
		fi.Outs = append([]int(nil), fi.Outs...)
		ng.AddFusion(fi)
	}
	for _, fi := range e.newFus {
		if remap[fi.Node] < 0 {
			continue
		}
		fi.Node = remap[fi.Node]
		ng.AddFusion(fi)
	}
	return ng, nil
}
