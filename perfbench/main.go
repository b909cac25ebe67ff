// Command perfbench is the repository's benchmark: it measures source text
// to final store, end to end and layer by layer, on four workloads. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ctdf"
	"ctdf/internal/obs/telemetry"
)

// processStart anchors setup_s, which runs from process start to the first
// timed job.
var processStart = time.Now()

const (
	// setupReps is how many times an untraced run sets up; setup_s is the
	// median.
	setupReps = 5
	// minJobs is the fewest jobs in a run and in each of its windows: it
	// keeps at least ten latency samples beyond p90.
	minJobs = 100
	// maxFailLines bounds the mismatch lines printed per run.
	maxFailLines = 20
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareRuns(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: compile, verify, execute or sharded-observed")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds (each run completes whole passes over its inputs)")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload compile|verify|execute|sharded-observed --seed N --seconds S --trace 0|1")
		fmt.Fprintln(stderr, "       perfbench compare RUN_A.txt RUN_B.txt")
		return 2
	}
	// One process, with no more host threads running Go code than CPUs.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d go=%s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())
	b := &bench{w: w, seed: *seed, out: stdout, failedCases: map[*benchCase]bool{}}
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = b.traced(*seconds, filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed)))
	} else {
		res, err = b.untraced(*seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, m := range res.Metrics {
		fmt.Fprintf(stdout, "metric %s %s %s\n", m.name, m.text(), m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one named number with its unit.
type metric struct {
	name  string
	value float64
	unit  string
	count bool // an integer count, printed without a fraction
	// printOnly keeps the metric out of the result line, which carries
	// exactly the metrics BENCHMARK.json lists for the run's mode.
	printOnly bool
}

func (m metric) text() string {
	if m.count {
		return fmt.Sprintf("%d", int64(m.value))
	}
	return fmt.Sprintf("%.6g", m.value)
}

// result is the last line of a run's output.
type result struct {
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"-"`
}

func (r result) MarshalJSON() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.Metrics {
		if !m.printOnly {
			ms[m.name] = value{m.value, m.unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

type bench struct {
	w    *workload
	seed int64
	out  io.Writer
	// failedCases remembers the cases whose mismatch was printed.
	failedCases map[*benchCase]bool
	failLines   int
}

func (b *bench) setup(tr *tracer) ([]*benchCase, error) {
	cases := b.w.cases(b.seed)
	for _, c := range cases {
		if err := prepare(b.w, c, tr); err != nil {
			return nil, err
		}
	}
	return cases, nil
}

func (b *bench) printInputs(cases []*benchCase) {
	fmt.Fprintf(b.out, "inputs workload=%s digest=%s cases=%d classes=%s\n",
		b.w.name, digest(cases), len(cases), classCounts(cases))
}

// phase is one closed-loop measurement: one client runs whole passes over
// the cases, each pass in a seeded order, until the time is up and at
// least minJobs jobs have completed.
type phase struct {
	jobs, failed int
	passes       int
	wall         time.Duration
	latency      []time.Duration
	windows      []window
	rt0, rt1     runtimeStats
	machine      machineSums // sharded-observed: the jobs' telemetry
}

// window is a run of consecutive whole passes holding at least minJobs
// jobs: latency[from:to] took wall. The timing metrics are medians over
// windows, which keeps a burst of host contention shorter than half the
// run out of the figures.
type window struct {
	from, to int
	wall     time.Duration
}

func (b *bench) measure(cases []*benchCase, seconds float64, tr *tracer) phase {
	var ph phase
	limit := time.Duration(seconds * float64(time.Second))
	// Start from a collected heap, so that set-up garbage is not charged
	// to the jobs.
	runtime.GC()
	ph.rt0 = readRuntime()
	start := time.Now()
	winFrom, winStart := 0, start
	for ph.passes = 0; ph.passes == 0 || time.Since(start) < limit || ph.jobs < minJobs; ph.passes++ {
		for _, i := range shuffled(len(cases), b.seed+int64(ph.passes)) {
			c := cases[i]
			var r jobResult
			t0 := time.Now()
			if tr == nil {
				r = b.w.job(c)
			} else {
				r = b.w.traced(c, tr, ph.jobs)
			}
			ph.latency = append(ph.latency, time.Since(t0))
			ph.jobs++
			if why := b.check(c, r, &ph.machine); why != "" {
				ph.failed++
				b.reportFailure(c, why)
			}
		}
		if ph.jobs-winFrom >= minJobs {
			now := time.Now()
			ph.windows = append(ph.windows, window{from: winFrom, to: ph.jobs, wall: now.Sub(winStart)})
			winFrom, winStart = ph.jobs, now
		}
	}
	ph.wall = time.Since(start)
	if winFrom < ph.jobs {
		// A short last window joins the one before it.
		last := &ph.windows[len(ph.windows)-1]
		last.to = ph.jobs
		last.wall += time.Since(winStart)
	}
	ph.rt1 = readRuntime()
	return ph
}

// timing returns the medians over windows of jobs per second and of the
// p50 and p90 job latency in milliseconds.
func (ph *phase) timing() (jobsPerS, p50, p90 float64) {
	var rates, q50, q90 []float64
	for _, w := range ph.windows {
		lat := append([]time.Duration(nil), ph.latency[w.from:w.to]...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rates = append(rates, float64(w.to-w.from)/w.wall.Seconds())
		q50 = append(q50, ms(quantile(lat, 0.50)))
		q90 = append(q90, ms(quantile(lat, 0.90)))
	}
	return median(rates), median(q50), median(q90)
}

// check compares a job's outcome with the case's reference; the empty
// string means the job passed. It also takes the case's deterministic
// counts the first time the case runs.
func (b *bench) check(c *benchCase, r jobResult, ms *machineSums) string {
	switch {
	case c.setupErr != "":
		return c.setupErr
	case r.err != nil:
		return "error: " + r.err.Error()
	case r.vetErrors > 0:
		return fmt.Sprintf("vet reported %d errors", r.vetErrors)
	case b.w.name != "verify" && r.snapshot != c.ref:
		return "store differs from the reference"
	}
	if r.telemetry != nil {
		mb := r.telemetry.MachineBreakdown()
		if mb.Firings != int64(r.firings) {
			return fmt.Sprintf("telemetry counted %d firings, the run %d", mb.Firings, r.firings)
		}
		ms.add(mb)
	}
	if !c.counted && b.w.name != "verify" {
		if r.graph != nil {
			c.nodes = r.graph.Stats().Nodes
		}
		c.cycles, c.firings, c.counted = r.cycles, r.firings, true
	}
	return ""
}

func (b *bench) reportFailure(c *benchCase, why string) {
	if b.failedCases[c] || b.failLines >= maxFailLines {
		return
	}
	b.failedCases[c] = true
	b.failLines++
	fmt.Fprintf(b.out, "FAIL workload=%s class=%s seed=%d case=%s: %s\n", b.w.name, c.class, c.seed, c.name, why)
}

func (b *bench) untraced(seconds float64) (result, error) {
	var (
		cases  []*benchCase
		setups []float64
		err    error
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = processStart
		}
		if cases, err = b.setup(nil); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}
	b.printInputs(cases)
	fmt.Fprintf(b.out, "setup reps=%d seconds=%.4f\n", setupReps, setups)
	ph := b.measure(cases, seconds, nil)
	fmt.Fprintf(b.out, "samples jobs=%d passes=%d windows=%d wall_s=%.3f\n", ph.jobs, ph.passes, len(ph.windows), ph.wall.Seconds())
	nodes, cycles, firings := 0, 0, 0
	for _, c := range cases {
		nodes += c.nodes
		cycles += c.cycles
		firings += c.firings
	}
	jobsPerS, p50, p90 := ph.timing()
	return result{
		Correct: ph.failed == 0, Attempted: ph.jobs, Failed: ph.failed,
		Metrics: []metric{
			{name: "setup_s", value: median(setups), unit: "s"},
			{name: "jobs_per_s", value: jobsPerS, unit: "1/s"},
			{name: "latency_p50_ms", value: p50, unit: "ms"},
			{name: "latency_p90_ms", value: p90, unit: "ms"},
			// failed_share is 0 whenever the run is correct, and a bound
			// relative to a zero median means nothing: the result line
			// carries failures as attempted and failed instead.
			{name: "failed_share", value: float64(ph.failed) / float64(ph.jobs), unit: "ratio", printOnly: true},
			{name: "alloc_mb_per_job", value: float64(ph.rt1.allocBytes-ph.rt0.allocBytes) / 1e6 / float64(ph.jobs), unit: "MB"},
			{name: "graph_nodes", value: float64(nodes), unit: "count", count: true},
			{name: "sim_cycles", value: float64(cycles), unit: "count", count: true},
			{name: "sim_firings", value: float64(firings), unit: "count", count: true},
		},
	}, nil
}

// traced measures half the time untraced and half traced, so that the
// tracing overhead is measured within one run; the per-layer metrics come
// from the traced half.
func (b *bench) traced(seconds float64, traceFile string) (result, error) {
	tr := newTracer()
	cases, err := b.setup(tr)
	if err != nil {
		return result{}, err
	}
	interpSpans := len(tr.spans)
	b.printInputs(cases)
	plain := b.measure(cases, seconds/2, nil)
	traced := b.measure(cases, seconds/2, tr)
	fmt.Fprintf(b.out, "samples untraced_jobs=%d traced_jobs=%d passes=%d+%d\n", plain.jobs, traced.jobs, plain.passes, traced.passes)

	machineSums, w2OverW1 := traced.machine, 0.0
	switch b.w.name {
	case "compile", "execute":
		// Their jobs run without telemetry; one extra run per case with a
		// registry attached gives the machine's phase split.
		if machineSums, err = b.phaseProbe(cases); err != nil {
			return result{}, err
		}
	case "sharded-observed":
		if w2OverW1, err = shardRatio(cases); err != nil {
			return result{}, err
		}
	}
	n, err := tr.writePerfetto(traceFile)
	if err != nil {
		return result{}, fmt.Errorf("trace file: %w", err)
	}
	fmt.Fprintf(b.out, "trace file=%s events=%d of %d\n", traceFile, n, len(tr.spans))

	lt := tr.totals()
	metrics := layerMetrics(cases, lt, tr.spans[:interpSpans], machineSums)
	metrics = append(metrics, metric{name: "machine.w2_over_w1", value: w2OverW1, unit: "ratio"})
	attempted, failed := plain.jobs+traced.jobs, plain.failed+traced.failed
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, fmt.Errorf("getrusage: %w", err)
	}
	metrics = append(metrics,
		metric{name: "runtime.gc_cpu_share", value: gcShare(traced.rt0, traced.rt1), unit: "ratio"},
		metric{name: "runtime.peak_rss_mb", value: float64(ru.Maxrss) / 1024, unit: "MB"}, // Maxrss is in KiB on Linux
		metric{name: "trace.overhead_ratio", value: (float64(traced.jobs) / traced.wall.Seconds()) / (float64(plain.jobs) / plain.wall.Seconds()), unit: "ratio"},
		metric{name: "trace.unaccounted_share", value: lt.unaccounted(), unit: "ratio"},
		metric{name: "failed_share", value: float64(failed) / float64(attempted), unit: "ratio"},
	)
	b.printLayerTable(lt)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// phaseProbe runs every case once more with one shared telemetry registry
// attached and returns the machine's phase split over those runs.
func (b *bench) phaseProbe(cases []*benchCase) (machineSums, error) {
	var sums machineSums
	tel := ctdf.NewTelemetry()
	for _, c := range cases {
		d := c.graph
		if d == nil {
			p, err := ctdf.Compile(c.src)
			if err == nil {
				d, err = p.Translate(c.opts)
			}
			if err != nil {
				return sums, fmt.Errorf("%s: phase probe: %w", c.name, err)
			}
		}
		rc := b.w.runConfig(c)
		rc.Telemetry = tel
		if _, err := d.Run(rc); err != nil {
			return sums, fmt.Errorf("%s: phase probe: %w", c.name, err)
		}
	}
	sums.add(tel.Snapshot().MachineBreakdown())
	return sums, nil
}

// shardRatio times every case's run at one and at two workers, without
// telemetry, alternating the two, and returns the two-worker time over the
// one-worker time: what sharding costs or saves on this host.
func shardRatio(cases []*benchCase) (float64, error) {
	var total [3]time.Duration
	for rep := 0; rep < 3; rep++ {
		for _, c := range cases {
			for _, workers := range []int{1, 2} {
				t0 := time.Now()
				if _, err := c.graph.Run(ctdf.RunConfig{Workers: workers, Binding: c.binding}); err != nil {
					return 0, fmt.Errorf("%s: w%d run: %w", c.name, workers, err)
				}
				total[workers] += time.Since(t0)
			}
		}
	}
	return total[2].Seconds() / total[1].Seconds(), nil
}

// layerOrder lists the span names of the layer table: the job's direct
// children first, then the stages timed outside the job.
var layerOrder = []struct{ span, note string }{
	{"lang.parse", ""},
	{"cfg.build", "includes inlining"},
	{"translate", "the cfg and analysis replays below are its stages"},
	{"opt", ""},
	{"vet", ""},
	{"machine.run", "includes dfg.validate"},
	{"telemetry.snapshot", ""},
	{"cfg.reducible", "replayed"},
	{"cfg.loop_control", "replayed"},
	{"analysis.control_deps", "replayed"},
	{"analysis.switch_place", "replayed"},
	{"analysis.source_vectors", "replayed"},
	{"dfg.validate", "timed alone"},
}

func (b *bench) printLayerTable(lt *layerTotals) {
	fmt.Fprintf(b.out, "layers over %d traced jobs (ms per job; share of summed job wall time %.3f s)\n", lt.jobs, lt.jobWall.Seconds())
	for _, l := range layerOrder {
		if lt.calls[l.span] == 0 {
			continue
		}
		fmt.Fprintf(b.out, "  %-24s %10.4f  %6.2f%%  %s\n", l.span, lt.perJobMs(l.span),
			100*float64(lt.dur[l.span])/float64(lt.jobWall), l.note)
	}
	fmt.Fprintf(b.out, "  %-24s %10s  %6.2f%%  job time outside every layer span\n", "unaccounted", "", 100*lt.unaccounted())
}

// machineSums accumulates machine phase breakdowns.
type machineSums struct {
	selectNs, retireNs, barrierNs int64
	fireNs, deliverNs             []int64
	remoteTokens, shardTokens     int64
}

func (s *machineSums) add(b *telemetry.MachineBreakdown) {
	s.selectNs += b.SelectNs
	s.retireNs += b.RetireNs
	s.barrierNs += b.BarrierFireNs + b.BarrierDeliverNs
	for i := range b.FireNs {
		for len(s.fireNs) <= i {
			s.fireNs = append(s.fireNs, 0)
			s.deliverNs = append(s.deliverNs, 0)
		}
		s.fireNs[i] += b.FireNs[i]
		s.deliverNs[i] += b.DeliverNs[i]
	}
	s.remoteTokens += b.RemoteTokens
	s.shardTokens += b.ShardTokens
}

func (s *machineSums) metrics() []metric {
	fire, deliver, maxFire := sum(s.fireNs), sum(s.deliverNs), int64(0)
	for _, f := range s.fireNs {
		maxFire = max(maxFire, f)
	}
	total := s.selectNs + s.retireNs + s.barrierNs + fire + deliver
	imbalance := 0.0
	if fire > 0 {
		imbalance = float64(maxFire) / (float64(fire) / float64(len(s.fireNs)))
	}
	return []metric{
		{name: "machine.select_share", value: ratio(s.selectNs, total), unit: "ratio"},
		{name: "machine.fire_share", value: ratio(fire, total), unit: "ratio"},
		{name: "machine.retire_share", value: ratio(s.retireNs, total), unit: "ratio"},
		{name: "machine.deliver_share", value: ratio(deliver, total), unit: "ratio"},
		{name: "machine.barrier_share", value: ratio(s.barrierNs, total), unit: "ratio"},
		{name: "machine.fire_imbalance", value: imbalance, unit: "ratio"},
		{name: "machine.remote_token_share", value: ratio(s.remoteTokens, s.shardTokens), unit: "ratio"},
	}
}

// layerMetrics derives the per-layer metrics. Times are means per traced
// job; counts are totals over the workload's distinct cases, like the
// end-to-end counts.
func layerMetrics(cases []*benchCase, lt *layerTotals, interpSpans []span, ms machineSums) []metric {
	var lc layerCounts
	for _, c := range cases {
		l := c.lay
		lc.cfgNodes += l.cfgNodes
		lc.copied += l.copied
		lc.loops += l.loops
		lc.switches += l.switches
		lc.dfgNodes += l.dfgNodes
		lc.dfgArcs += l.dfgArcs
		lc.optRewrites += l.optRewrites
		lc.optRemoved += l.optRemoved
		lc.cycles += l.cycles
		lc.firings += l.firings
		lc.tokens += l.tokens
		lc.vetErrors += l.vetErrors
	}
	replayed := 0.0
	for _, n := range []string{"cfg.reducible", "cfg.loop_control", "analysis.control_deps", "analysis.switch_place", "analysis.source_vectors"} {
		replayed += lt.perJobMs(n)
	}
	var interpDur time.Duration
	for _, s := range interpSpans {
		interpDur += s.end - s.start
	}
	run := lt.dur["machine.run"]
	firesPerS, validateShare, allocPerRun := 0.0, 0.0, 0.0
	if run > 0 {
		firesPerS = float64(lt.work["machine.run"]) / run.Seconds()
		validateShare = float64(lt.dur["dfg.validate"]) / float64(run)
		allocPerRun = float64(lt.alloc["machine.run"]) / 1e6 / float64(lt.calls["machine.run"])
	}
	translateMs := lt.perJobMs("translate")
	selfMs := 0.0
	if translateMs > 0 {
		selfMs = translateMs - replayed
	}
	count := func(name string, v int64) metric {
		return metric{name: name, value: float64(v), unit: "count", count: true}
	}
	timed := func(span string) metric {
		return metric{name: span + "_ms", value: lt.perJobMs(span), unit: "ms"}
	}
	out := []metric{
		timed("lang.parse"),
		timed("cfg.build"),
		count("cfg.nodes", int64(lc.cfgNodes)),
		timed("cfg.reducible"),
		count("cfg.copied_nodes", int64(lc.copied)),
		timed("cfg.loop_control"),
		count("cfg.loops", int64(lc.loops)),
		timed("analysis.control_deps"),
		timed("analysis.switch_place"),
		count("analysis.switches", int64(lc.switches)),
		timed("analysis.source_vectors"),
		{name: "translate.ms", value: translateMs, unit: "ms"},
		{name: "translate.self_ms", value: selfMs, unit: "ms"},
		count("dfg.nodes", int64(lc.dfgNodes)),
		count("dfg.arcs", int64(lc.dfgArcs)),
		timed("dfg.validate"),
		{name: "opt.ms", value: lt.perJobMs("opt"), unit: "ms"},
		count("opt.rewrites", int64(lc.optRewrites)),
		count("opt.nodes_removed", int64(lc.optRemoved)),
		{name: "vet.ms", value: lt.perJobMs("vet"), unit: "ms"},
		count("vet.errors", int64(lc.vetErrors)),
		timed("machine.run"),
		{name: "machine.fires_per_s", value: firesPerS, unit: "1/s"},
		count("machine.cycles", int64(lc.cycles)),
		count("machine.firings", int64(lc.firings)),
		count("machine.tokens_moved", lc.tokens),
		{name: "machine.validate_share", value: validateShare, unit: "ratio"},
		{name: "machine.alloc_mb_per_run", value: allocPerRun, unit: "MB"},
	}
	out = append(out, ms.metrics()...)
	out = append(out,
		timed("telemetry.snapshot"),
		metric{name: "interp.ms", value: float64(interpDur) / 1e6 / float64(max(len(interpSpans), 1)), unit: "ms"},
	)
	return out
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
