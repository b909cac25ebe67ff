package main

import (
	"fmt"

	"ctdf"
	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/machine"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
)

// jobResult is what one job produced; it is checked after the job's
// latency has been taken.
type jobResult struct {
	err       error
	snapshot  string
	vetErrors int
	cycles    int
	firings   int
	graph     *ctdf.Dataflow          // compile: the graph the job built
	telemetry *ctdf.TelemetrySnapshot // sharded-observed: the job's scrape
}

// workload is one named input set and the job the closed loop repeats.
type workload struct {
	name  string
	cases func(seed int64) []*benchCase
	// latency is the machine's memory latency in every run of the
	// workload's graphs (0 is the machine's default of 1).
	latency int
	job     func(c *benchCase) jobResult
	traced  func(c *benchCase, tr *tracer, id int) jobResult
}

// executeLatency is the split-phase memory latency of the execute
// workload, which `ctdf run -latency 4` also exercises.
const executeLatency = 4

// runConfig is the configuration of every run of c's graph outside the
// jobs, and the base of the jobs' own.
func (w *workload) runConfig(c *benchCase) ctdf.RunConfig {
	return ctdf.RunConfig{MemLatency: w.latency, Binding: c.binding}
}

func (w *workload) machineConfig(c *benchCase) machine.Config {
	return machine.Config{MemLatency: w.latency, Binding: interp.Binding(c.binding)}
}

var workloadList = []*workload{
	{
		name:  "compile",
		cases: compileCases,
		job: func(c *benchCase) jobResult {
			p, err := ctdf.Compile(c.src)
			if err != nil {
				return jobResult{err: err}
			}
			d, err := p.Translate(c.opts)
			if err != nil {
				return jobResult{err: err}
			}
			r, err := d.Run(ctdf.RunConfig{Binding: c.binding})
			return fromResult(r, err, d)
		},
		traced: tracedCompile,
	},
	{
		name:  "verify",
		cases: verifyCases,
		job: func(c *benchCase) jobResult {
			return jobResult{vetErrors: c.graph.Vet().Errors}
		},
		traced: func(c *benchCase, tr *tracer, id int) jobResult {
			j := tr.begin("job", id, -1)
			s := tr.begin("vet", id, j)
			rep := c.graph.Vet()
			tr.end(s)
			tr.end(j)
			return jobResult{vetErrors: rep.Errors}
		},
	},
	{
		name:    "execute",
		cases:   executeCases,
		latency: executeLatency,
		job: func(c *benchCase) jobResult {
			r, err := c.graph.Run(ctdf.RunConfig{MemLatency: executeLatency, Binding: c.binding})
			return fromResult(r, err, nil)
		},
		traced: func(c *benchCase, tr *tracer, id int) jobResult {
			j := tr.begin("job", id, -1)
			out, m := tracedRun(tr, id, j, c, ctdf.RunConfig{MemLatency: executeLatency, Binding: c.binding})
			tr.end(j)
			probeValidate(tr, id, m, c.lay.res.Graph)
			return out
		},
	},
	{
		name:  "sharded-observed",
		cases: shardedCases,
		job: func(c *benchCase) jobResult {
			tel := ctdf.NewTelemetry()
			r, err := c.graph.Run(ctdf.RunConfig{Workers: 2, Telemetry: tel, Binding: c.binding})
			out := fromResult(r, err, nil)
			out.telemetry = tel.Snapshot()
			return out
		},
		traced: func(c *benchCase, tr *tracer, id int) jobResult {
			j := tr.begin("job", id, -1)
			tel := ctdf.NewTelemetry()
			out, m := tracedRun(tr, id, j, c, ctdf.RunConfig{Workers: 2, Telemetry: tel, Binding: c.binding})
			s := tr.begin("telemetry.snapshot", id, j)
			out.telemetry = tel.Snapshot()
			tr.end(s)
			tr.end(j)
			probeValidate(tr, id, m, c.lay.res.Graph)
			return out
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloadList {
		if w.name == name {
			return w
		}
	}
	return nil
}

func fromResult(r *ctdf.Result, err error, d *ctdf.Dataflow) jobResult {
	if err != nil {
		return jobResult{err: err}
	}
	return jobResult{snapshot: r.Snapshot, cycles: r.Cycles, firings: r.Ops, graph: d}
}

// prepare sets a case up: its reference store, its graph for the
// workloads whose job does not compile, and for verify one run of that
// graph, since the verify job never runs it.
func prepare(w *workload, c *benchCase, tr *tracer) error {
	p, err := ctdf.Compile(c.src)
	if err != nil {
		return fmt.Errorf("%s: compile: %w", c.name, err)
	}
	s := -1
	if tr != nil {
		s = tr.begin("interp", -1, -1)
	}
	ref, err := p.Interpret(c.binding)
	if tr != nil {
		tr.end(s)
	}
	if err != nil {
		return fmt.Errorf("%s: interpret: %w", c.name, err)
	}
	c.ref = ref.Snapshot
	if w.name != "compile" {
		if c.graph, err = p.Translate(c.opts); err != nil {
			return fmt.Errorf("%s: translate: %w", c.name, err)
		}
		c.nodes = c.graph.Stats().Nodes
	}
	if w.name == "verify" {
		r, err := c.graph.Run(w.runConfig(c))
		switch {
		case err != nil:
			c.setupErr = "setup run: " + err.Error()
		case r.Snapshot != c.ref:
			c.setupErr = "setup run: store differs from the reference"
		default:
			c.cycles, c.firings, c.counted = r.Cycles, r.Ops, true
		}
	}
	if tr != nil {
		c.lay, err = buildLayers(c, w.machineConfig(c), w.name == "verify")
	}
	return err
}

// layerCounts are a case's per-layer work counts, from one pass through
// the internal pipeline that mirrors Compile → Translate → Run.
type layerCounts struct {
	res                               *translate.Result
	cfgNodes, copied, loops, switches int
	dfgNodes, dfgArcs                 int
	optRewrites, optRemoved           int
	cycles, firings                   int
	tokens                            int64
	vetErrors                         int
}

// internalOptions maps public options to the translator's, as
// Program.Translate does (Schema 3 takes the default singleton cover).
func internalOptions(o ctdf.Options, prog *lang.Program) (translate.Options, error) {
	s, err := translate.ParseSchema(o.Schema.String())
	if err != nil {
		return translate.Options{}, err
	}
	io := translate.Options{Schema: s, EliminateMemory: o.EliminateMemory, Optimize: o.Optimize}
	if o.Schema == ctdf.Schema3 || o.Schema == ctdf.Schema3Opt {
		io.Cover = analysis.SingletonCover(analysis.NewAliasStructure(prog))
	}
	return io, nil
}

func buildLayers(c *benchCase, mc machine.Config, withVet bool) (*layerCounts, error) {
	fail := func(err error) (*layerCounts, error) { return nil, fmt.Errorf("%s: layers: %w", c.name, err) }
	prog, err := lang.Parse(c.src)
	if err != nil {
		return fail(err)
	}
	g, err := cfg.Build(prog)
	if err != nil {
		return fail(err)
	}
	iopt, err := internalOptions(c.opts, prog)
	if err != nil {
		return fail(err)
	}
	res, err := translate.Translate(g, iopt)
	if err != nil {
		return fail(err)
	}
	lc := &layerCounts{res: res, cfgNodes: g.Len(), copied: res.CopiedNodes, loops: len(res.Loops)}
	for _, toks := range res.Placement.Needs {
		lc.switches += len(toks)
	}
	if c.opts.Optimize > 0 {
		before := res.Graph.NumNodes()
		cert, err := opt.Run(res)
		if err != nil {
			return fail(err)
		}
		lc.optRewrites, lc.optRemoved = cert.Rewrites(), before-res.Graph.NumNodes()
	}
	lc.dfgNodes, lc.dfgArcs = res.Graph.NumNodes(), res.Graph.NumArcs()
	out, err := machine.Run(res.Graph, mc)
	if err != nil {
		return fail(err)
	}
	lc.cycles, lc.firings, lc.tokens = out.Stats.Cycles, out.Stats.Ops, out.Stats.TokensMoved
	if withVet {
		lc.vetErrors = vet.Run(res.Graph, res).Errors()
	}
	return lc, nil
}

// tracedCompile is the compile job through the internal layers, one span
// per layer call. After the job span closes, the cfg and analysis stages
// that translate.Translate runs internally are replayed on the job's own
// CFG, and dfg.Validate, which machine.Run runs on every call, is timed
// on its own.
func tracedCompile(c *benchCase, tr *tracer, id int) jobResult {
	j := tr.begin("job", id, -1)
	fail := func(err error) jobResult {
		tr.end(j)
		return jobResult{err: err}
	}
	s := tr.begin("lang.parse", id, j)
	prog, err := lang.Parse(c.src)
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	s = tr.begin("cfg.build", id, j)
	g, err := cfg.Build(prog)
	tr.end(s)
	if err != nil {
		return fail(err)
	}
	ts := tr.begin("translate", id, j)
	iopt, err := internalOptions(c.opts, prog)
	var res *translate.Result
	if err == nil {
		res, err = translate.Translate(g, iopt)
	}
	tr.end(ts)
	if err != nil {
		return fail(err)
	}
	if c.opts.Optimize > 0 {
		s = tr.begin("opt", id, j)
		_, err = opt.Run(res)
		tr.end(s)
		if err != nil {
			return fail(err)
		}
	}
	a0 := allocBytes()
	m := tr.begin("machine.run", id, j)
	out, err := machine.Run(res.Graph, machine.Config{Binding: interp.Binding(c.binding)})
	var snap string
	if err == nil {
		snap = translate.FinalSnapshot(res, out.Store, out.EndValues)
	}
	tr.end(m)
	tr.spans[m].alloc = allocBytes() - a0
	tr.end(j)
	if err != nil {
		return jobResult{err: err}
	}
	tr.spans[m].work = int64(out.Stats.Ops)
	replayStages(tr, id, ts, g, res)
	probeValidate(tr, id, m, res.Graph)
	return jobResult{snapshot: snap, cycles: out.Stats.Cycles, firings: out.Stats.Ops}
}

// tracedRun times one public Dataflow.Run as a machine.run span.
func tracedRun(tr *tracer, id, parent int, c *benchCase, rc ctdf.RunConfig) (jobResult, int) {
	a0 := allocBytes()
	m := tr.begin("machine.run", id, parent)
	r, err := c.graph.Run(rc)
	tr.end(m)
	tr.spans[m].alloc = allocBytes() - a0
	out := fromResult(r, err, nil)
	tr.spans[m].work = int64(out.firings)
	return out, m
}

// replayStages re-runs, in translate.Translate's order, the exported
// stages it calls, each as a child span of the translate span. The
// inputs are the job's CFG and what Translate returned: the analysis
// stages get the loop-controlled CFG, analysis.VarNeed, and Translate's
// placement. Translate's own need function extends VarNeed through an
// unexported loop-need fixpoint, so these timings approximate the
// in-translate ones.
func replayStages(tr *tracer, id, parent int, g0 *cfg.Graph, res *translate.Result) {
	s := tr.begin("cfg.reducible", id, parent)
	g1, _, err := cfg.MakeReducible(g0)
	tr.end(s)
	if err == nil {
		s = tr.begin("cfg.loop_control", id, parent)
		_, _, _ = cfg.InsertLoopControl(g1)
		tr.end(s)
	}
	need := analysis.VarNeed(res.CFG)
	if sc := res.Options.Schema; sc == translate.Schema2Opt || sc == translate.Schema3Opt {
		s = tr.begin("analysis.control_deps", id, parent)
		cd := analysis.ComputeControlDeps(res.CFG)
		tr.end(s)
		s = tr.begin("analysis.switch_place", id, parent)
		analysis.PlaceSwitches(res.CFG, cd, need)
		tr.end(s)
	}
	s = tr.begin("analysis.source_vectors", id, parent)
	_, _ = analysis.ComputeSourceVectors(res.CFG, res.Loops, res.Universe, need, res.Placement)
	tr.end(s)
}

// probeValidate times dfg.Validate, which every machine.Run call repeats,
// as a child of the run's span.
func probeValidate(tr *tracer, id, parent int, g *dfg.Graph) {
	s := tr.begin("dfg.validate", id, parent)
	_ = g.Validate()
	tr.end(s)
}
