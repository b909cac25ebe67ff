// Package machine simulates an explicit token store dataflow machine in
// the style of Monsoon (paper §2.2): tokens carry tags identifying their
// loop iteration context, tokens destined for a multi-input operator
// rendezvous in a matching store (the ETS frame memory), loads and stores
// are split-phase operations with configurable latency, and a configurable
// number of processors issues enabled operations each cycle.
//
// Running the same graph with an unlimited processor count measures the
// program's critical path; the per-cycle issue counts form its parallelism
// profile. This is the measurement substrate for every experiment in
// EXPERIMENTS.md.
//
// Map to the paper:
//
//   - machine.go — the ETS pipeline of §2.2: tag matching, instruction
//     issue, split-phase memory, bounded processors per cycle, with the
//     cycle skeleton and pure-operator evaluator both engines share; also
//     the observability hooks (Config.Collector, an *obs.Collector) that
//     count firings/waits/stalls and thread the firing DAG used for
//     critical-path extraction (see OBSERVABILITY.md).
//   - queue.go — the hot-path data structures: the bucketed ready queue,
//     the tag-intern table, the sharded matching store's free lists
//     (see PERFORMANCE.md).
//   - shard.go — the sharded multi-core machine (Config.Workers): the
//     whole engine partitioned into shared-nothing per-worker shards
//     with deterministic cross-shard token routing, byte-identical to
//     the sequential engine at every worker count (see SCALING.md).
//   - istruct.go — the I-structure memory unit of §6.3: presence bits,
//     deferred reads satisfied by the eventual write.
//   - procs.go — activation contexts for procedure invocations (§2.2),
//     Apply/Param/ProcReturn linkage.
//   - race.go — optional checker that no two conflicting memory
//     operations overlap in time (the §5 correctness condition covers
//     must enforce).
//   - trace.go — ASCII parallelism chart; execution traces themselves are
//     obs.TraceSink events (Config.Trace).
package machine

import (
	"io"
	"math/rand"
	"sort"
	"time"

	"ctdf/internal/dfg"
	"ctdf/internal/fault"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/machcheck"
	"ctdf/internal/obs"
	"ctdf/internal/obs/telemetry"
)

// Config configures a simulation run.
type Config struct {
	// Processors bounds how many operations issue per cycle; 0 means
	// unlimited (critical-path mode). Negative values are rejected with an
	// InvalidConfig machine check.
	Processors int
	// MemLatency is the number of cycles a split-phase load or store takes
	// (minimum and default 1; negative values are rejected). All other
	// operators take one cycle.
	MemLatency int
	// MaxCycles aborts runaway executions (default one million; negative
	// values are rejected).
	MaxCycles int
	// MaxOps bounds total operator firings — and, indirectly, delivered
	// tokens — so a token explosion aborts with a CyclesExceeded machine
	// check before exhausting memory (default ten million; negative values
	// are rejected).
	MaxOps int64
	// Deadline bounds wall-clock execution (0 = none; negative values are
	// rejected); exceeding it aborts with a Deadline machine check.
	Deadline time.Duration
	// Inject threads a deterministic fault-injection plan through the
	// run (nil = no injection; see internal/fault and ROBUSTNESS.md).
	Inject *fault.Injector
	// Binding selects which aliased names share storage this run.
	Binding interp.Binding
	// RandomSeed, when nonzero, issues enabled operations in a
	// pseudo-random order instead of the deterministic one — the final
	// store must not depend on it (dataflow determinacy).
	RandomSeed int64
	// DetectRaces additionally checks that no two memory operations on the
	// same location overlap in time unless both are reads.
	DetectRaces bool
	// Workers, when > 1, runs the sharded multi-core machine (see
	// shard.go and SCALING.md): nodes are partitioned across Workers
	// shared-nothing shards, each cycle's pure firings and token
	// deliveries run on per-shard host workers, and the impure remainder
	// retires sequentially in global issue order. The simulated execution
	// is byte-identical to the sequential one at every worker count —
	// same snapshots, statistics, firing vectors, journal — because the
	// shard count parameterizes only host-side data layout, never the
	// simulated schedule. 0 and 1 select the sequential engine; the value
	// is capped at 256; ignored while fault injection (injection decisions
	// must see deliveries in sequential order) or seeded-random issue (one
	// RNG stream shuffles the whole ready set) is active.
	Workers int
	// CheckpointEvery, when > 0, captures a deterministic checkpoint of
	// the full machine state every CheckpointEvery cycles (see
	// checkpoint.go and ROBUSTNESS.md). Each completed checkpoint is
	// handed to CheckpointSink; the run's Outcome carries the last one's
	// CheckpointRef. Incompatible with DetectRaces, Trace, and Collector
	// (checkpoints cannot capture race-detector or observability state).
	CheckpointEvery int
	// CheckpointSink receives each completed checkpoint. A sink error
	// aborts the run.
	CheckpointSink func(*Checkpoint) error
	// Resume, when non-nil, restores the machine from a checkpoint
	// instead of starting at cycle 0; the resumed run produces the
	// byte-identical final Outcome the original would have. Incompatible
	// with Inject (fault plans count delivery sites from cycle 0).
	Resume *Checkpoint
	// Trace, when non-nil, receives one line per operator firing
	// ("cycle 12: d5: binop + [tag 0.1]"); it is implemented as an
	// obs.TraceSink on the event stream.
	Trace io.Writer
	// Collector, when non-nil, gathers per-node counters, streams
	// cycle-stamped events to its sinks, and (when enabled) records the
	// firing DAG for critical-path extraction. Nil disables observability
	// at the cost of one branch per firing.
	Collector *obs.Collector
	// Telemetry, when non-nil, receives engine-level metrics: per-shard
	// BSP phase wall time, barrier waits, the cross-shard token-traffic
	// matrix, outbox/inbox occupancy, matching-store depth, and
	// checkpoint capture time (see internal/obs/telemetry and
	// OBSERVABILITY.md). Unlike Collector it observes the host engine,
	// not the simulated program, so it is compatible with checkpointing
	// — capture time is itself a telemetry metric. Nil disables it at
	// the cost of one branch per phase. Repeated runs against one
	// registry accumulate.
	Telemetry *telemetry.Registry
}

// validate rejects configurations that could only arise from a caller
// bug: the zero value of every knob means "default", so negative values
// are never meaningful and used to be silently clamped or, worse, could
// wedge a run (a negative MaxCycles disabled the runaway guard).
func (c *Config) validate() error {
	switch {
	case c.Processors < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"Processors must be >= 0 (0 = unlimited), got %d", c.Processors)
	case c.MemLatency < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"MemLatency must be >= 0 (0 = default 1), got %d", c.MemLatency)
	case c.MaxCycles < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"MaxCycles must be >= 0 (0 = default 1e6), got %d", c.MaxCycles)
	case c.MaxOps < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"MaxOps must be >= 0 (0 = default 1e7), got %d", c.MaxOps)
	case c.Deadline < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"Deadline must be >= 0 (0 = none), got %v", c.Deadline)
	case c.Workers < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"Workers must be >= 0 (0 or 1 = sequential), got %d", c.Workers)
	case c.CheckpointEvery < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"CheckpointEvery must be >= 0 (0 = disabled), got %d", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 || c.Resume != nil {
		switch {
		case c.DetectRaces:
			return machcheck.Newf(machcheck.InvalidConfig, "machine",
				"checkpointing cannot capture race-detector state (disable DetectRaces)")
		case c.Collector != nil || c.Trace != nil:
			return machcheck.Newf(machcheck.InvalidConfig, "machine",
				"checkpointing cannot capture observability state (detach Collector/Trace)")
		}
	}
	if c.Resume != nil && c.Inject != nil {
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"cannot resume a checkpoint with fault injection armed (sites are counted from cycle 0)")
	}
	return nil
}

// Stats describes an execution.
type Stats struct {
	// Cycles is the total execution time; with unlimited processors this
	// is the critical path length.
	Cycles int
	// Ops is the number of operator firings.
	Ops int
	// MemOps counts load/store firings.
	MemOps int
	// Matches counts tokens that had to wait in the matching store.
	Matches int
	// TokensMoved counts tokens delivered to operator input ports — the
	// dataflow machine's interconnect traffic. Operator fusion lowers it:
	// a fused tree's interior results never become tokens at all.
	TokensMoved int64
	// MaxParallelism is the peak number of operations issued in one cycle.
	MaxParallelism int
	// PeakMatchStore is the peak number of partially matched activations
	// waiting in the matching store (the explicit-token-store frame memory
	// pressure).
	PeakMatchStore int
	// Profile[i] is the number of operations issued at cycle i (truncated
	// to profileLimit entries; the other statistics stay exact beyond it).
	Profile []int
}

// AvgParallelism is Ops/Cycles.
func (s Stats) AvgParallelism() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Cycles)
}

// Outcome is the result of a run.
type Outcome struct {
	// Store is the final memory state.
	Store *interp.Store
	// EndValues holds the value carried by each token collected at the end
	// node, indexed by end input port (meaningful for §6.1 value-carrying
	// token lines).
	EndValues []int64
	Stats     Stats
	// Checkpoint identifies the last completed checkpoint of the run
	// (nil when checkpointing was off or no interval elapsed). On an
	// aborted run this is the state a supervisor can restore — every
	// checkpoint is pre-fault by construction — and the cycle `ctdf
	// replay -at` can be pointed at.
	Checkpoint *CheckpointRef
}

// token is a value travelling an arc. It is plain old data — the tag
// rides along as its interned id (see tagTable), not as a string — so
// buffering and copying tokens costs no GC write barriers and token
// buffers are noscan memory.
type tok struct {
	to  dfg.Target
	val int64
	// tgID is the interned tag id; the matching store hashes it instead
	// of a tag string.
	tgID int32
	// dep is the producer firing's id in the collector's firing DAG
	// (-1 when the DAG is not being recorded or the token has no
	// producer, e.g. the initial start tokens).
	dep int32
	// dep2 is the second producer firing for the rare token with two: a
	// deferred I-structure read's result depends on both the read firing
	// and the store that satisfied it. dep holds the later-finishing one
	// (the critical-path link); dep2 the other, recorded only while
	// journaling so the provenance DAG keeps both edges. -1 when absent.
	dep2 int32
}

// matchEntry is one partially matched activation: a frame slot set in the
// explicit token store, addressed by (node, interned tag).
type matchEntry struct {
	have uint64
	vals []int64
	n    int
	// dep is the latest-finishing producer firing among the operands
	// matched so far (critical-path recording only).
	dep int32
	// deps accumulates every operand's producer firings in arrival order
	// (journaling only; nil otherwise).
	deps []int32
}

// firing is an enabled operator activation.
type firing struct {
	node int
	vals []int64
	tgID int32
	// port is the arriving port for any-arrival operators (merge, loop
	// entry).
	port int
	// dep is the latest-finishing input firing before issue; after issue
	// it is reused to hold this firing's own id in the firing DAG.
	dep int32
	// deps holds the producer firings of every operand (journaling only;
	// nil otherwise). Ownership passes to the journal at issue.
	deps []int32
}

// deadlineStride is how many schedulable units (cycles or firings) pass
// between wall-clock deadline samples. The old scheme only sampled every
// 1024 cycles, so a run wedged inside enormous batches — or crawling
// through slow traced firings — could overshoot a tiny deadline by
// orders of magnitude before the next cycle boundary.
const deadlineStride = 64

// profileLimit caps the recorded parallelism profile (Stats.Profile) in
// cycles.
const profileLimit = 1 << 16

// Run executes the dataflow graph to completion.
//
// Errors raised by the machine's own checks are *machcheck.Error values
// (match them with errors.Is against the machcheck sentinels); on such an
// abort the returned Outcome is non-nil and carries the partial store and
// statistics up to the failure, so aborted runs remain profilable.
// Malformed configurations (negative knobs) are rejected up front with an
// InvalidConfig machine check and a nil Outcome.
func Run(g *dfg.Graph, cfgc Config) (*Outcome, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cfgc.validate(); err != nil {
		return nil, err
	}
	if cfgc.MemLatency < 1 {
		cfgc.MemLatency = 1
	}
	if cfgc.MaxCycles == 0 {
		cfgc.MaxCycles = machcheck.DefaultMaxCycles
	}
	if cfgc.MaxOps == 0 {
		cfgc.MaxOps = machcheck.DefaultMaxOps
	}
	if err := cfgc.Binding.Validate(g.Prog); err != nil {
		return nil, err
	}
	m := &sim{
		g:         g,
		cfg:       cfgc,
		store:     interp.NewStoreWithBinding(g.Prog, cfgc.Binding),
		tags:      newTagTable(),
		shards:    make([]shardSlot, len(g.Nodes)),
		inflight:  map[int][]delayed{},
		endVals:   make([]int64, g.Nodes[g.EndID].NIns),
		curDep:    -1,
		curDep2:   -1,
		resumedAt: -1,
	}
	m.col = cfgc.Collector
	if cfgc.Trace != nil {
		// The historical trace format is an event sink; traced runs are
		// observed runs even when the caller attached no collector.
		if m.col == nil {
			m.col = obs.NewCollector(g, obs.Options{})
		}
		labels := make([]string, len(g.Nodes))
		for i, n := range g.Nodes {
			labels[i] = n.String()
		}
		m.col.AddSink(&obs.TraceSink{W: cfgc.Trace, Labels: labels})
	}
	m.dag = m.col.DAGEnabled()
	m.jour = m.col.JournalEnabled()
	m.inj = cfgc.Inject
	if cfgc.DetectRaces {
		m.locs = newRaceDetector(g.Prog, cfgc.Binding)
	}
	m.istruct = newIStructUnit(g)
	m.procs = newProcLinkage(g)
	// Worker count: >1 selects the sharded engine. Fault injection and
	// seeded-random issue force the sequential path: injection decisions
	// must observe deliveries in sequential order, and one RNG stream
	// shuffles the whole ready set, so Workers never changes a run.
	w := cfgc.Workers
	if w > maxShards {
		w = maxShards
	}
	if w < 1 || m.inj != nil || cfgc.RandomSeed != 0 {
		w = 1
	}
	m.initShards(w)
	if cfgc.Telemetry != nil {
		// The probe is sized to the effective worker count (after the
		// cap and sequential-path adjustments above) so per-shard series
		// exist exactly for the shards that will run.
		m.tel = newMachineTel(cfgc.Telemetry, w)
	}
	if cfgc.RandomSeed != 0 {
		m.rng = rand.New(rand.NewSource(cfgc.RandomSeed))
	}
	m.start = time.Now()
	if cfgc.Resume != nil {
		// Restore a checkpoint instead of starting at cycle 0. A
		// malformed checkpoint is a pre-run failure (nil Outcome), like
		// any other invalid configuration.
		if err := m.restore(cfgc.Resume); err != nil {
			return nil, err
		}
	}
	if w > 1 {
		return m.runSharded()
	}
	return m.run()
}

type sim struct {
	g     *dfg.Graph
	cfg   Config
	store *interp.Store
	rng   *rand.Rand

	// Scheduling state: tags interns tag keys, shards is the matching
	// store sharded by destination node and keyed by interned tag. The
	// ready queues, matching-store population counts, and free lists live
	// on the per-shard states (shs); the sequential engine runs with one
	// shard (sh0) owning every node, the sharded engine (shard.go) with
	// Workers shards partitioned by node id.
	tags    *tagTable
	shards  []shardSlot
	shs     []*shardState
	sh0     *shardState
	shardOf []int32
	// sharded marks the multi-worker engine: deliverOnce records
	// matching-store waits as mergeable per-shard events instead of
	// updating global statistics in place.
	sharded bool

	// Hot-path scratch and arenas: batchBuf holds the sequential engine's
	// issue batch, emitBuf the tokens the firing currently retiring emits,
	// tokArena backs parked in-flight token slices. All three are touched
	// only by sequential code (issue/retire), never by shard workers.
	batchBuf []firing
	emitBuf  []tok
	tokArena []tok
	// fusedScratch backs fused-node step evaluation (sequential retire
	// path only).
	fusedScratch []int64

	// inflight memory completions: cycle → emissions.
	inflight map[int][]delayed
	cycle    int
	stats    Stats

	// start is the run's wall-clock origin; deadlineTick counts
	// schedulable units since the last wall-clock sample (see
	// deadlineStride).
	start        time.Time
	deadlineTick int

	endVals  []int64
	endCycle int
	done     bool

	// Observability: col collects counters/events (nil when disabled),
	// dag caches col.DAGEnabled() (critical path or journal), jour caches
	// col.JournalEnabled(), curDep is the firing id the tokens currently
	// being emitted inherit as their producer, and curDep2 the second
	// producer for deferred I-structure read results (-1 otherwise).
	col     *obs.Collector
	dag     bool
	jour    bool
	curDep  int32
	curDep2 int32

	// Fault injection (nil = none) and the delivered-token budget that
	// bounds token explosions.
	inj       *fault.Injector
	delivered int64

	// Checkpointing (checkpoint.go): ckID numbers completed checkpoints,
	// lastCk is the newest one's handle, resumedAt the cycle this run was
	// restored at (-1 otherwise), and shufLog the RNG stream's
	// shuffle-length history in seeded-random mode.
	ckID      int
	lastCk    *CheckpointRef
	resumedAt int
	shufLog   []int

	// Sharded engine state (shard.go): the worker pool, the
	// sequential-writer inbox lanes (impure emissions and start tokens;
	// released split-phase completions), the sequence-key stride, the
	// base firing-DAG id of the current cycle's batch, the merged live
	// matching-store population, and reusable merge cursors.
	pool      *shardPool
	seqBox    [][]routedTok
	relBox    [][]routedTok
	fanStride int64
	dagBase   int32
	matchLive int
	selCur    []int
	evCur     []int
	imCur     []int

	locs    *raceDetector
	istruct *istructUnit
	procs   *procLinkage

	// tel is the engine telemetry probe (Config.Telemetry); nil when
	// telemetry is disabled.
	tel *machineTel
}

type delayed struct {
	tokens []tok
	// race bookkeeping: location released at completion.
	release func()
}

// abort ends the run on a failed machine check, emitting an abort event
// and returning the partial outcome (store and statistics up to the
// failure) alongside the error, so aborted runs remain profilable.
func (m *sim) abort(err error) (*Outcome, error) {
	m.stats.Cycles = m.cycle
	m.stats.TokensMoved = m.delivered
	if ce, ok := err.(*machcheck.Error); ok {
		ce.Cycle = m.cycle
		m.col.Abort(m.cycle, string(ce.Check))
	}
	return m.outcome(), err
}

func (m *sim) outcome() *Outcome {
	return &Outcome{Store: m.store, EndValues: m.endVals, Stats: m.stats, Checkpoint: m.lastCk}
}

// overDeadline samples the wall clock once per deadlineStride schedulable
// units; it returns the Deadline machine check when the budget is blown.
func (m *sim) overDeadline() error {
	if m.deadlineTick++; m.deadlineTick < deadlineStride {
		return nil
	}
	m.deadlineTick = 0
	if time.Since(m.start) > m.cfg.Deadline {
		return machcheck.Newf(machcheck.Deadline, "machine",
			"exceeded %v wall-clock deadline at cycle %d", m.cfg.Deadline, m.cycle).WithStuck(m.stuckList())
	}
	return nil
}

func (m *sim) run() (*Outcome, error) {
	if m.cfg.Resume == nil {
		// Cycle 0: start emits one dummy token per out arc at the root tag.
		targets := m.g.OutTargets(m.g.StartID, 0)
		if m.tel != nil && len(targets) > 0 {
			m.tel.trafficAdd(m.tel.seqLane(), 0, len(targets))
		}
		for _, t := range targets {
			if err := m.deliver(tok{to: t, val: 0, tgID: rootTagID, dep: -1, dep2: -1}); err != nil {
				return m.abort(err)
			}
		}
	}

	ready := m.sh0.ready
	var telT0 time.Time
	for m.running() {
		if err := m.cycleGuards(); err != nil {
			return m.abort(err)
		}
		// Issue up to Processors enabled operations this cycle, in
		// deterministic order (or seeded-random when configured).
		// Telemetry maps the sequential engine onto the BSP phase
		// vocabulary: select = batch construction, fire = the firing
		// loop, deliver = the cycle-boundary delivery (retire has no
		// sequential counterpart — impure effects run inside fire).
		if m.tel != nil {
			telT0 = time.Now()
		}
		issue := m.issueWidth(ready.count)
		if err := m.recordIssue(issue); err != nil {
			return m.abort(err)
		}
		var batch []firing
		if m.rng != nil {
			// Seeded-random mode: materialize the whole deterministic
			// order, shuffle it (consuming the same randomness the old
			// global sort+shuffle did), issue a prefix and re-queue the
			// rest.
			all := ready.fill(m.batchBuf[:0], ready.count)
			m.batchBuf = all
			m.rng.Shuffle(len(all), func(i, j int) {
				all[i], all[j] = all[j], all[i]
			})
			if m.cfg.CheckpointEvery > 0 {
				m.shufLog = append(m.shufLog, len(all))
			}
			batch = all[:issue]
			for _, f := range all[issue:] {
				ready.push(f)
			}
		} else {
			m.batchBuf = ready.fill(m.batchBuf[:0], issue)
			batch = m.batchBuf
		}
		if m.tel != nil {
			observeSeconds(m.tel.selSec, time.Since(telT0))
			telT0 = time.Now()
		}
		for i := range batch {
			f := &batch[i]
			if m.col != nil {
				// f.dep switches meaning here: latest input firing in,
				// this firing's own DAG id out.
				f.dep = m.col.Fire(f.node, m.cycle, m.costOf(f.node), len(f.vals), f.port, f.dep, f.deps, m.tags.key(f.tgID))
			} else {
				f.dep = -1
			}
			m.curDep, m.curDep2 = f.dep, -1
			if err := m.fire(f); err != nil {
				return m.abort(err)
			}
			m.sh0.putVals(f.vals)
			if m.cfg.Deadline > 0 {
				if err := m.overDeadline(); err != nil {
					return m.abort(err)
				}
			}
		}
		if m.tel != nil {
			observeSeconds(m.tel.fireSec[0], time.Since(telT0))
			telT0 = time.Now()
		}
		// Completions scheduled for the next cycle boundary, delivered
		// after this cycle's emissions.
		released := m.advance(issue)
		emitN := len(m.emitBuf)
		for i := range m.emitBuf {
			if err := m.deliver(m.emitBuf[i]); err != nil {
				return m.abort(err)
			}
		}
		m.emitBuf = m.emitBuf[:0]
		for _, d := range released {
			for i := range d.tokens {
				if err := m.deliver(d.tokens[i]); err != nil {
					return m.abort(err)
				}
			}
		}
		if m.tel != nil {
			memN := 0
			for _, d := range released {
				memN += len(d.tokens)
			}
			if emitN > 0 {
				m.tel.trafficAdd(m.tel.seqLane(), 0, emitN)
			}
			if memN > 0 {
				m.tel.trafficAdd(m.tel.memLane(), 0, memN)
			}
			m.tel.outbox[0].Observe(int64(emitN), telemetry.DepthBuckets)
			m.tel.inbox[0].Observe(int64(emitN+memN), telemetry.DepthBuckets)
			observeSeconds(m.tel.delivSec[0], time.Since(telT0))
			m.tel.cycleCounts(m, issue)
		}
	}
	return m.finish()
}

// running, cycleGuards, issueWidth, recordIssue, advance and finish are
// the cycle skeleton both engines share.
//
// running reports whether the cycle loop must go on. Execution runs until
// end fires, then drains remaining enabled work: tokens routed by a
// switch onto an unconnected output (a path where the token's value is
// dead, e.g. after §6.1 elimination) are dropped at that switch, and the
// drops may be scheduled after end's inputs completed.
func (m *sim) running() bool {
	return !m.done || m.readyTotal() > 0 || len(m.inflight) > 0
}

// cycleGuards runs at the top of every cycle: the matching-store depth
// sample, a due checkpoint, the cycle and wall-clock budgets, and the
// deadlock check (no enabled or in-flight work before end fired).
func (m *sim) cycleGuards() error {
	m.tel.sampleDepth(m)
	if err := m.maybeCheckpoint(); err != nil {
		return err
	}
	if m.cycle > m.cfg.MaxCycles {
		return machcheck.Newf(machcheck.CyclesExceeded, "machine",
			"exceeded %d cycles (deadlock or runaway loop?)", m.cfg.MaxCycles).WithStuck(m.stuckList())
	}
	if m.cfg.Deadline > 0 {
		if err := m.overDeadline(); err != nil {
			return err
		}
	}
	if !m.done && m.readyTotal() == 0 && len(m.inflight) == 0 {
		return m.deadlockError()
	}
	return nil
}

// issueWidth is how many of n enabled operations issue this cycle.
func (m *sim) issueWidth(n int) int {
	if m.cfg.Processors > 0 && n > m.cfg.Processors {
		return m.cfg.Processors
	}
	return n
}

// recordIssue enforces the firing budget and records the cycle's issue
// width: peak parallelism and the per-cycle profile.
func (m *sim) recordIssue(issue int) error {
	if int64(m.stats.Ops)+int64(issue) > m.cfg.MaxOps {
		return machcheck.Newf(machcheck.CyclesExceeded, "machine",
			"exceeded %d firings (runaway loop?)", m.cfg.MaxOps)
	}
	if issue > m.stats.MaxParallelism {
		m.stats.MaxParallelism = issue
	}
	if m.cycle < profileLimit {
		for len(m.stats.Profile) <= m.cycle {
			m.stats.Profile = append(m.stats.Profile, 0)
		}
		m.stats.Profile[m.cycle] = issue
	}
	return nil
}

// advance closes the cycle that just issued: it counts the issue, moves
// the clock to the cycle boundary, and returns the split-phase memory
// completions due there with their race-detector holds released.
func (m *sim) advance(issue int) []delayed {
	m.cycle++
	m.stats.Ops += issue
	released := m.inflight[m.cycle]
	for _, d := range released {
		if d.release != nil {
			d.release()
		}
	}
	delete(m.inflight, m.cycle)
	return released
}

// finish closes a drained run with the final statistics and the
// conservation checks: no unsatisfied I-structure reads, no unreturned
// procedure activations, and — strict conservation — no partially
// matched activation left in the matching store (a waiting token whose
// partner can never arrive is a translation bug).
func (m *sim) finish() (*Outcome, error) {
	m.stats.Cycles = m.endCycle
	m.stats.TokensMoved = m.delivered
	if err := m.istruct.pendingError(); err != nil {
		return m.abort(err)
	}
	if m.procs != nil && len(m.procs.live) != 0 {
		return m.abort(machcheck.Newf(machcheck.TokenLeak, "machine",
			"%d procedure activations never returned", len(m.procs.live)))
	}
	if n := m.totalMatchCount(); n != 0 {
		return m.abort(machcheck.Newf(machcheck.TokenLeak, "machine",
			"%d tokens left after end fired", n).WithStuck(m.stuckList()))
	}
	return m.outcome(), nil
}

// totalMatchCount sums the matching store's population over all shards.
func (m *sim) totalMatchCount() int {
	n := 0
	for _, sh := range m.shs {
		n += sh.matchCount
	}
	return n
}

// stuckList renders the matching store's partially matched activations as
// stuck-token diagnostics, in deterministic order.
func (m *sim) stuckList() []machcheck.Stuck {
	type stuckKey struct {
		node int
		tag  string
		e    *matchEntry
	}
	keys := make([]stuckKey, 0, m.totalMatchCount())
	for node := range m.shards {
		s := &m.shards[node]
		if s.e != nil {
			keys = append(keys, stuckKey{node: node, tag: m.tags.keys[s.tgID], e: s.e})
		}
		for tgID, e := range s.more {
			keys = append(keys, stuckKey{node: node, tag: m.tags.keys[tgID], e: e})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].tag < keys[j].tag
	})
	out := make([]machcheck.Stuck, 0, len(keys))
	for _, k := range keys {
		out = append(out, machcheck.Stuck{
			Node: k.node, Label: m.g.Nodes[k.node].String(), Tag: k.tag,
			Have: k.e.n, Need: m.g.Nodes[k.node].NIns,
		})
	}
	return out
}

// matchSite reports whether tokens delivered to n rendezvous in the
// matching store (or at end), where strict conservation makes a dropped,
// duplicated, or tag-corrupted token visible — the eligible sites for
// delivery faults.
func matchSite(n *dfg.Node) bool {
	return n.Kind == dfg.End || arity(n) >= 2
}

// arity is the operand count of an enabled activation of n: any-arrival
// operators (merge, loop entry, param) and single-input nodes fire on
// each token, every other node on a complete match of its NIns ports.
func arity(n *dfg.Node) int {
	switch n.Kind {
	case dfg.Merge, dfg.LoopEntry, dfg.Param:
		return 1
	}
	return n.NIns
}

// deliver routes a token to its destination, enabling a firing when the
// activation's operands are complete. It is also the fault-injection
// point for delivery faults and enforces the delivered-token budget.
// Sequential engine only; the sharded engine's delivery phase calls
// deliverOnce per shard directly (injection forces the sequential path,
// and the token budget is enforced at the cycle merge).
func (m *sim) deliver(t tok) error {
	if m.delivered++; m.delivered > 8*m.cfg.MaxOps+1024 {
		return machcheck.Newf(machcheck.CyclesExceeded, "machine",
			"delivered %d tokens (token explosion?)", m.delivered)
	}
	if m.inj != nil {
		switch m.inj.Deliver(matchSite(m.g.Nodes[t.to.Node])) {
		case fault.ActDrop:
			m.col.Fault(t.to.Node, m.cycle, string(fault.DropToken))
			return nil
		case fault.ActDup:
			m.col.Fault(t.to.Node, m.cycle, string(fault.DupToken))
			if err := m.deliverOnce(m.sh0, t, 0); err != nil {
				return err
			}
		case fault.ActCorruptTag:
			m.col.Fault(t.to.Node, m.cycle, string(fault.CorruptTag))
			t.tgID = m.tags.pushID(t.tgID)
		}
	}
	return m.deliverOnce(m.sh0, t, 0)
}

// deliverOnce lands one token on the shard that owns its destination
// node. seq is the token's position in the sequential delivery order of
// the cycle (see shard.go); the sequential engine passes 0 — it
// processes tokens in that order anyway. In sharded mode, matching-store
// waits are recorded as per-shard events keyed by seq instead of
// updating Matches/PeakMatchStore in place, and the cycle merge replays
// them in seq order so the statistics come out byte-identical.
func (m *sim) deliverOnce(sh *shardState, t tok, seq int64) error {
	n := m.g.Nodes[t.to.Node]
	if n.Kind == dfg.End && t.tgID != rootTagID {
		return machcheck.Newf(machcheck.TagViolation, "machine",
			"token reached end with non-root tag %q (unbalanced loop context)", m.tags.key(t.tgID))
	}
	if arity(n) == 1 {
		// Each token fires the node on its own; port is the arriving
		// port (it matters to any-arrival operators only).
		vals := sh.getVals(1)
		vals[0] = t.val
		fr := firing{node: n.ID, tgID: t.tgID, vals: vals, port: t.to.Port, dep: t.dep}
		if m.jour {
			fr.deps = appendDeps(nil, &t)
		}
		sh.ready.push(fr)
		return nil
	}
	e := m.matchLookup(n.ID, t.tgID)
	inserted := e == nil
	if inserted {
		e = sh.getEntry(n.NIns)
		e.dep = t.dep
		m.matchInsert(sh, n.ID, t.tgID, e)
	} else if m.dag {
		e.dep = m.col.MaxDep(e.dep, t.dep)
	}
	if m.jour {
		e.deps = appendDeps(e.deps, &t)
	}
	bit := uint64(1) << uint(t.to.Port)
	if e.have&bit != 0 {
		return machcheck.Newf(machcheck.TagViolation, "machine",
			"duplicate token at %s port %d tag %q", n, t.to.Port, m.tags.key(t.tgID))
	}
	e.have |= bit
	e.vals[t.to.Port] = t.val
	e.n++
	if e.n == n.NIns {
		m.matchDelete(sh, n.ID, t.tgID)
		sh.ready.push(firing{node: n.ID, tgID: t.tgID, vals: e.vals, dep: e.dep, deps: e.deps})
		sh.putEntry(e)
		if m.sharded {
			sh.waits = append(sh.waits, waitEvent{seq: seq, delta: -1})
		}
	} else if m.sharded {
		var d int8
		if inserted {
			d = 1
		}
		sh.waits = append(sh.waits, waitEvent{
			seq: seq, node: int32(n.ID), port: int32(t.to.Port), dep: t.dep, tgID: t.tgID, delta: d,
		})
	} else {
		m.stats.Matches++
		if m.col != nil {
			m.col.Wait(n.ID, m.cycle, t.to.Port, t.dep, m.tags.key(t.tgID))
		}
		if sh.matchCount > m.stats.PeakMatchStore {
			m.stats.PeakMatchStore = sh.matchCount
		}
	}
	return nil
}

// emitAll broadcasts val on every arc leaving (node, port) by appending
// to the cycle's emission buffer. Emitted tokens inherit m.curDep (and
// m.curDep2, normally -1) as their producer firings.
func (m *sim) emitAll(node, port int, val int64, tgID int32) {
	targets := m.g.OutTargets(node, port)
	for _, t := range targets {
		m.emitBuf = append(m.emitBuf, tok{to: t, val: val, tgID: tgID, dep: m.curDep, dep2: m.curDep2})
	}
	if m.col != nil {
		m.col.Emitted(node, len(targets))
	}
}

// appendDeps accumulates a token's producer firings onto a journal deps
// list, skipping absent (-1) links. Called only while journaling.
func appendDeps(deps []int32, t *tok) []int32 {
	if t.dep >= 0 {
		deps = append(deps, t.dep)
	}
	if t.dep2 >= 0 {
		deps = append(deps, t.dep2)
	}
	return deps
}

// costOf is an operator's duration in cycles: split-phase memory
// operations take MemLatency, everything else one cycle.
func (m *sim) costOf(node int) int {
	switch m.g.Nodes[node].Kind {
	case dfg.Load, dfg.Store, dfg.LoadIdx, dfg.StoreIdx, dfg.ILoad, dfg.IStore:
		return m.cfg.MemLatency
	}
	return 1
}

// evalPure is the one statement of the pure operators' semantics — Const,
// BinOp, UnOp, Switch, Merge, Param, Synch — for both engines. The ETS
// firing rule (paper §2.2) is local: a pure operator's result depends
// only on its matched operands, so evalPure reads nothing but the node
// and vals. It returns the output port and value; ok is false for every
// other kind, and err carries an operator fault.
func evalPure(n *dfg.Node, vals []int64) (port int, val int64, ok bool, err error) {
	switch n.Kind {
	case dfg.Const:
		return 0, n.Val, true, nil
	case dfg.BinOp:
		v, err := interp.Apply(n.Op, vals[0], vals[1])
		if err != nil {
			return 0, 0, true, machcheck.Newf(machcheck.OperatorFault, "machine", "%s: %v", n, err)
		}
		return 0, v, true, nil
	case dfg.UnOp:
		switch n.Op {
		case lang.OpNeg:
			return 0, -vals[0], true, nil
		case lang.OpNot:
			if vals[0] == 0 {
				return 0, 1, true, nil
			}
			return 0, 0, true, nil
		}
		return 0, 0, true, machcheck.Newf(machcheck.OperatorFault, "machine", "bad unary op %v", n.Op)
	case dfg.Switch:
		if vals[1] == 0 {
			return 1, vals[0], true, nil
		}
		return 0, vals[0], true, nil
	case dfg.Merge, dfg.Param:
		return 0, vals[0], true, nil
	case dfg.Synch:
		return 0, 0, true, nil
	}
	return 0, 0, false, nil
}

// fire executes one operator activation, appending the tokens it emits
// this cycle to the emission buffer (memory operations park their results
// in the in-flight queue instead).
func (m *sim) fire(f *firing) error {
	n := m.g.Nodes[f.node]
	if port, v, ok, err := evalPure(n, f.vals); ok {
		if err != nil {
			return err
		}
		if m.inj != nil && n.Kind == dfg.BinOp && fault.PredicateOp(n.Op) {
			if fv, hit := m.inj.Misfire(v); hit {
				m.col.Fault(n.ID, m.cycle, string(fault.MisfireValue))
				v = fv
			}
		}
		m.emitAll(n.ID, port, v, f.tgID)
		return nil
	}
	switch n.Kind {
	case dfg.End:
		if m.done {
			return machcheck.Newf(machcheck.TagViolation, "machine",
				"end fired twice (duplicate result token)")
		}
		copy(m.endVals, f.vals)
		m.endCycle = m.cycle + 1
		m.done = true
		return nil

	case dfg.Fused:
		// The whole step program evaluates in this one firing; fault
		// injection sees the fused node as a single operator (Misfire
		// targets predicate binops only, and fused trees are interior
		// value computations, so no injection point is lost).
		fi := m.g.FusionOf(n.ID)
		vals, err := interp.EvalFused(fi.Steps, f.vals, m.fusedScratch)
		if err != nil {
			return machcheck.Newf(machcheck.OperatorFault, "machine", "%s: %v", n, err)
		}
		m.fusedScratch = vals
		for p, s := range fi.Outs {
			m.emitAll(n.ID, p, vals[s], f.tgID)
		}
		return nil

	case dfg.Apply:
		return m.fireApply(f)

	case dfg.ProcReturn:
		return m.fireProcReturn(f)

	case dfg.LoopEntry:
		var ntID int32
		if f.port == 0 {
			ntID = m.tags.pushID(f.tgID)
		} else {
			var err error
			ntID, err = m.tags.bumpID(f.tgID)
			if err != nil {
				return machcheck.Newf(machcheck.TagViolation, "machine", "%s: %v", n, err)
			}
		}
		m.emitAll(n.ID, 0, f.vals[0], ntID)
		return nil

	case dfg.LoopExit:
		ntID, err := m.tags.popID(f.tgID)
		if err != nil {
			return machcheck.Newf(machcheck.TagViolation, "machine", "%s: %v", n, err)
		}
		m.emitAll(n.ID, 0, f.vals[0], ntID)
		return nil

	case dfg.Load:
		m.stats.MemOps++
		name := m.resolveName(n.Var, m.tags.tag(f.tgID))
		release, err := m.acquire(name, -1, false)
		if err != nil {
			return err
		}
		v := m.store.Get(name)
		mark := len(m.emitBuf)
		m.emitAll(n.ID, 0, v, f.tgID)
		m.emitAll(n.ID, 1, 0, f.tgID)
		m.park(mark, release)
		return nil

	case dfg.Store:
		m.stats.MemOps++
		name := m.resolveName(n.Var, m.tags.tag(f.tgID))
		release, err := m.acquire(name, -1, true)
		if err != nil {
			return err
		}
		m.store.Set(name, f.vals[0])
		mark := len(m.emitBuf)
		m.emitAll(n.ID, 0, 0, f.tgID)
		m.park(mark, release)
		return nil

	case dfg.LoadIdx:
		m.stats.MemOps++
		name := m.resolveName(n.Var, m.tags.tag(f.tgID))
		release, err := m.acquire(name, f.vals[0], false)
		if err != nil {
			return err
		}
		v, err := m.store.GetIdx(name, f.vals[0])
		if err != nil {
			return machcheck.Newf(machcheck.OperatorFault, "machine", "%s: %v", n, err)
		}
		mark := len(m.emitBuf)
		m.emitAll(n.ID, 0, v, f.tgID)
		m.emitAll(n.ID, 1, 0, f.tgID)
		m.park(mark, release)
		return nil

	case dfg.StoreIdx:
		m.stats.MemOps++
		name := m.resolveName(n.Var, m.tags.tag(f.tgID))
		release, err := m.acquire(name, f.vals[0], true)
		if err != nil {
			return err
		}
		if err := m.store.SetIdx(name, f.vals[0], f.vals[1]); err != nil {
			return machcheck.Newf(machcheck.OperatorFault, "machine", "%s: %v", n, err)
		}
		mark := len(m.emitBuf)
		m.emitAll(n.ID, 0, 0, f.tgID)
		m.park(mark, release)
		return nil

	case dfg.ILoad:
		m.stats.MemOps++
		ready, err := m.istruct.read(n.Var, f.vals[0], istructWaiter{node: n.ID, tgID: f.tgID, dep: f.dep})
		if err != nil {
			return err
		}
		if ready {
			v, err := m.store.GetIdx(n.Var, f.vals[0])
			if err != nil {
				return machcheck.Newf(machcheck.OperatorFault, "machine", "%s: %v", n, err)
			}
			mark := len(m.emitBuf)
			m.emitAll(n.ID, 0, v, f.tgID)
			m.park(mark, nil)
		}
		// A deferred read emits when the write arrives.
		return nil

	case dfg.IStore:
		m.stats.MemOps++
		waiters, err := m.istruct.write(n.Var, f.vals[0])
		if err != nil {
			return err
		}
		if err := m.store.SetIdx(n.Var, f.vals[0], f.vals[1]); err != nil {
			return machcheck.Newf(machcheck.OperatorFault, "machine", "%s: %v", n, err)
		}
		mark := len(m.emitBuf)
		storeDep := m.curDep
		for _, w := range waiters {
			// A deferred read's result depends on both the read's own
			// firing and the store that satisfied it: dep carries the
			// later-finishing link (critical path), dep2 the other edge so
			// the journaled provenance DAG keeps both producers.
			m.curDep = m.col.MaxDep(storeDep, w.dep)
			if m.jour {
				if m.curDep == storeDep {
					m.curDep2 = w.dep
				} else {
					m.curDep2 = storeDep
				}
			}
			m.emitAll(w.node, 0, f.vals[1], w.tgID)
		}
		m.curDep, m.curDep2 = storeDep, -1
		m.park(mark, nil)
		return nil
	}
	return machcheck.Newf(machcheck.OperatorFault, "machine", "cannot fire %s", n)
}

// park schedules memory-operation results — the emission buffer's tail
// starting at mark — to appear after MemLatency cycles (split-phase
// operation, §2.2). It is the injection point for split-phase memory
// faults: a lost response drops its result tokens, a delayed one adds
// latency (responses are eligible only before end fires, while every
// response is still needed for completion).
func (m *sim) park(mark int, release func()) {
	at := m.cycle + m.cfg.MemLatency
	var tokens []tok
	if pending := m.emitBuf[mark:]; len(pending) > 0 {
		tokens = m.parkSlice(pending)
		m.emitBuf = m.emitBuf[:mark]
	}
	if m.inj != nil && !m.done && len(tokens) > 0 {
		if lose, delay := m.inj.MemResponse(); lose {
			m.col.Fault(-1, m.cycle, string(fault.LoseMemResponse))
			tokens = nil
		} else if delay > 0 {
			m.col.Fault(-1, m.cycle, string(fault.DelayMemResponse))
			at += delay
		}
	}
	m.inflight[at] = append(m.inflight[at], delayed{tokens: tokens, release: release})
}

func (m *sim) acquire(name string, idx int64, write bool) (func(), error) {
	if m.locs == nil {
		return nil, nil
	}
	return m.locs.acquire(name, idx, write)
}

func (m *sim) deadlockError() error {
	if err := m.istruct.pendingError(); err != nil {
		return err
	}
	return machcheck.Newf(machcheck.Deadlock, "machine",
		"no enabled work at cycle %d but end has not fired; %d activations waiting",
		m.cycle, m.totalMatchCount()).WithStuck(m.stuckList())
}
