package machine

import (
	"runtime"
	"sync"
	"time"

	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/obs/telemetry"
)

// The sharded multi-core machine (Config.Workers > 1): the Monsoon
// multi-PE story of paper §2.2, where each processing element owns a
// slice of the explicit token store and tokens travel to the PE that
// owns their destination instruction. Nodes are partitioned across W
// shared-nothing shards by a hash of the node id; each shard owns its
// nodes' ready-queue buckets, matching-store slots, and free lists, so
// shard workers never contend on scheduler state. Fault-injected and
// seeded-random runs never come here: Run gives them one shard, so the
// worker count changes no run at all.
//
// A cycle runs as four phases (bulk-synchronous, like the cycle it
// simulates):
//
//  1. select (sequential): merge the shards' active lists into the
//     global deterministic issue order and assign each planned firing
//     its global issue index gi — exactly the index it would have in the
//     sequential engine's batch. Loop-tag arithmetic for the planned
//     firings is resolved here, so phase 2 only reads the tag table.
//  2. fire (parallel): every shard evaluates its planned firings. Pure
//     operators (the evalPure set, plus loop tag rewrites whose results
//     were cached in phase 1) evaluate immediately and route their
//     output tokens into per-destination-shard outboxes; everything
//     impure (memory, procedure linkage, end, uncached tag arithmetic)
//     is deferred. Tokens are stamped with a sequence key ordered by
//     (gi, emission index) — the exact order the sequential engine
//     would have appended them to its emission buffer.
//  3. retire (sequential): the deferred impure firings and the pure
//     firings' observation events are merged back into ascending gi
//     order and replayed: collector Fire events, journal records,
//     statistics, and error aborts all happen here, in sequential issue
//     order, so the firing DAG and journal come out byte-identical.
//     Impure firings execute their side effects now — they are the only
//     code that touches the store, tag table, I-structures, or
//     activation linkage, and they run in exactly the sequential order.
//  4. deliver (parallel) + merge (sequential): each shard drains the
//     inboxes addressed to it in ascending sequence-key order — the
//     sequential delivery order — landing tokens in its matching-store
//     slots and ready buckets. Matching-store waits are recorded as
//     per-shard (seq, delta) events; the merge replays them in seq
//     order to reproduce Matches, PeakMatchStore, and collector Wait
//     events byte-exactly, and picks the earliest error in sequential
//     order if any shard aborted.
//
// Why this is byte-exact at any worker count: in the sequential engine,
// tokens produced in cycle C are only delivered at the C→C+1 boundary,
// so within a cycle the only cross-firing effects are through impure
// state — which phase 3 runs in exact sequential order. Pure firings
// commute; their results depend only on their operands. The firing DAG
// ids are precomputable (Fire assigns dense call indices, so the gi-th
// firing of the cycle gets id dagBase+gi), which lets phase 2 stamp
// tokens with their producer's id before Fire is actually called in
// phase 3. See SCALING.md for the full argument and the memory-ordering
// discussion.

// maxShards caps Config.Workers; past a few hundred shards the
// per-shard queues cost more than any machine can win back.
const maxShards = 256

// shardedPhaseMin is the minimum per-cycle work (planned firings or
// routed tokens) worth dispatching to the worker pool; narrower cycles
// run all shards inline on the coordinating goroutine. A variable so
// tests can force the parallel phases on small workloads.
var shardedPhaseMin = 64

// shardHash maps a node id to its owning shard (Fibonacci hashing —
// consecutive ids, the common layout of a translated program, spread
// evenly).
func shardHash(id int) uint32 {
	return uint32(id) * 2654435761
}

// planEntry is one selection decision: fire take pending activations of
// node this cycle, the first carrying global issue index base.
type planEntry struct {
	node int
	take int
	base int
}

// routedTok is a token en route to the shard owning its destination,
// keyed by its position in the sequential delivery order of the cycle.
type routedTok struct {
	t   tok
	seq int64
}

// waitEvent is one matching-store population change, recorded by the
// parallel delivery phase and replayed in seq order by the cycle merge:
// delta +1 = token created a frame entry and waits, 0 = token joined an
// existing entry and waits, -1 = token completed an activation. The
// node/port/dep/tgID fields feed the collector Wait event for the two
// waiting cases.
type waitEvent struct {
	seq   int64
	node  int32
	port  int32
	dep   int32
	tgID  int32
	delta int8
}

// fireEvent defers a pure firing's observation (collector Fire/Emitted,
// journal record) to the sequential retire pass.
type fireEvent struct {
	gi       int
	node     int32
	port     int32
	consumed int32
	emitted  int32
	inDep    int32
	tgID     int32
	deps     []int32
}

// impureFiring defers a non-pure firing to the sequential retire pass.
type impureFiring struct {
	gi int
	f  firing
}

// shardState is one shard's private scheduler state. The sequential
// engine runs with a single shard owning every node; the sharded engine
// gives each shard the nodes with shardHash(id) % W == id and lets a
// host worker drive it through the parallel phases.
type shardState struct {
	id    int
	ready *readyQueue
	// matchCount is the population of the matching-store slots this
	// shard owns.
	matchCount int

	// Free lists and arenas (queue.go) — strictly shard-private.
	entryFree  []*matchEntry
	entryArena []matchEntry
	valsFree   [][][]int64
	valsArena  []int64

	// Per-cycle scratch for the sharded engine's phases.
	plan      []planEntry
	outbox    [][]routedTok // fire phase → per-destination-shard tokens
	fireEvs   []fireEvent   // fire phase → deferred pure observations
	impure    []impureFiring
	waits     []waitEvent
	heads     []int // delivery-phase k-way merge cursors
	delivered int64

	// First error per phase, in sequential order (min gi / min seq);
	// the retire pass and cycle merge pick the global minimum.
	fireErr     error
	fireErrGi   int
	delivErr    error
	delivErrSeq int64

	// Telemetry scratch, written as plain fields by the owning worker
	// during the parallel phases and folded into the registry by the
	// sequential cycle merge (the phase barrier orders the accesses):
	// busy nanoseconds in fire/deliver and pure firings executed.
	telFireNs    int64
	telDelivNs   int64
	telPureFired int64
}

// initShards builds the per-shard states and the node→shard map. w=1 is
// the sequential engine (shard 0 owns everything and no parallel-phase
// scratch is allocated).
func (m *sim) initShards(w int) {
	maxIns := 1
	for _, n := range m.g.Nodes {
		if n.NIns > maxIns {
			maxIns = n.NIns
		}
	}
	m.shardOf = make([]int32, len(m.g.Nodes))
	m.shs = make([]*shardState, w)
	for i := range m.shs {
		sh := &shardState{id: i}
		sh.ready = newReadyQueue(len(m.g.Nodes), m.tags)
		sh.valsFree = make([][][]int64, maxIns+1)
		if w > 1 {
			sh.outbox = make([][]routedTok, w)
			sh.heads = make([]int, w+2)
		}
		m.shs[i] = sh
	}
	m.sh0 = m.shs[0]
	if w > 1 {
		for id := range m.g.Nodes {
			m.shardOf[id] = int32(shardHash(id) % uint32(w))
		}
		m.seqBox = make([][]routedTok, w)
		m.relBox = make([][]routedTok, w)
		m.selCur = make([]int, w)
		m.evCur = make([]int, w)
		m.imCur = make([]int, w)
		m.sharded = true
	}
}

// --- worker pool ------------------------------------------------------

// shardPool drives the parallel phases: min(GOMAXPROCS, W) persistent
// goroutines, each owning a fixed subset of shards (static round-robin,
// so which goroutine runs a shard never affects anything — determinism
// depends only on the shard count).
// shardPool runs the parallel phases. The calling goroutine executes the
// first shard slice itself, so the goroutine count equals the host-core
// budget instead of exceeding it by one perpetually-parking coordinator
// — profiling shows the oversubscribed variant doubles the futex traffic
// of the phase barrier, which runs twice per simulated cycle. By the
// time the caller finishes its own share the helpers usually have too,
// making Wait a no-futex fast path. (A fully spinning barrier was tried
// and measured slower here: helpers burning a core through the
// sequential select/retire/merge stretches starve the coordinator.)
type shardPool struct {
	chans []chan func(*shardState)
	// mine is the shard subset the calling goroutine executes inline.
	mine []*shardState
	wg   sync.WaitGroup
}

func newShardPool(shs []*shardState) *shardPool {
	gor := runtime.GOMAXPROCS(0)
	if gor > len(shs) {
		gor = len(shs)
	}
	p := &shardPool{chans: make([]chan func(*shardState), gor-1)}
	for i := 0; i < len(shs); i += gor {
		p.mine = append(p.mine, shs[i])
	}
	for w := range p.chans {
		ch := make(chan func(*shardState), 1)
		p.chans[w] = ch
		var mine []*shardState
		for i := w + 1; i < len(shs); i += gor {
			mine = append(mine, shs[i])
		}
		go func(mine []*shardState) {
			for fn := range ch {
				for _, sh := range mine {
					fn(sh)
				}
				p.wg.Done()
			}
		}(mine)
	}
	return p
}

// run executes fn once per shard and waits for all of them (the phase
// barrier). The caller's goroutine processes the first shard slice.
func (p *shardPool) run(fn func(*shardState)) { p.runTimed(fn, nil) }

// runTimed additionally accumulates the coordinator's barrier wait —
// the stretch between finishing its own shard slice and the last
// helper's Done — into *barNs when non-nil (telemetry's
// barrier_wait_seconds probe).
func (p *shardPool) runTimed(fn func(*shardState), barNs *int64) {
	p.wg.Add(len(p.chans))
	for _, ch := range p.chans {
		ch <- fn
	}
	for _, sh := range p.mine {
		fn(sh)
	}
	if barNs != nil {
		t0 := time.Now()
		p.wg.Wait()
		*barNs += time.Since(t0).Nanoseconds()
		return
	}
	p.wg.Wait()
}

func (p *shardPool) stop() {
	for _, ch := range p.chans {
		close(ch)
	}
}

// --- main loop --------------------------------------------------------

// readyTotal sums enabled work over all shards.
func (m *sim) readyTotal() int {
	n := 0
	for _, sh := range m.shs {
		n += sh.ready.count
	}
	return n
}

// runSharded is the sharded engine's main loop — the same cycle
// structure as run(), with the issue/retire/deliver work split into the
// phases described at the top of this file.
func (m *sim) runSharded() (*Outcome, error) {
	// Parallel phases fan out tokens concurrently; build the lazy
	// out-target caches up front so they are read-only from here on.
	m.g.WarmTargets()
	// fanStride spaces the sequence keys of consecutive firings so that
	// (gi, emission index) order-embeds into one int64: seq =
	// (gi+1)*fanStride + k, with k < fanStride by construction.
	m.fanStride = int64(m.g.MaxFanOut()) + 1
	m.pool = newShardPool(m.shs)
	defer m.pool.stop()

	if m.cfg.Resume == nil {
		// Cycle 0: start emits one dummy token per out arc at the root tag,
		// delivered through the same phase machinery as ordinary cycles.
		for i, t := range m.g.OutTargets(m.g.StartID, 0) {
			d := m.shardOf[t.Node]
			m.seqBox[d] = append(m.seqBox[d], routedTok{
				t: tok{to: t, val: 0, tgID: rootTagID, dep: -1, dep2: -1}, seq: int64(i),
			})
		}
		m.runDeliverPhase()
		if err := m.mergeCycle(); err != nil {
			return m.abort(err)
		}
	}

	var telT0 time.Time
	for m.running() {
		if err := m.cycleGuards(); err != nil {
			return m.abort(err)
		}
		if m.tel != nil {
			telT0 = time.Now()
		}
		issue := m.selectCycle()
		if m.tel != nil {
			observeSeconds(m.tel.selSec, time.Since(telT0))
		}
		if err := m.recordIssue(issue); err != nil {
			return m.abort(err)
		}
		if m.dag {
			m.dagBase = int32(m.col.FiringCount())
		}
		m.runFirePhase(issue)
		if m.tel != nil {
			telT0 = time.Now()
		}
		if err := m.retireCycle(); err != nil {
			return m.abort(err)
		}
		if m.tel != nil {
			observeSeconds(m.tel.retSec, time.Since(telT0))
		}
		// Cycle boundary: route the released split-phase completions
		// after this cycle's emissions (the sequential delivery order).
		released := m.advance(issue)
		relSeq := int64(1) << 62
		for _, d := range released {
			for i := range d.tokens {
				t := d.tokens[i]
				dst := m.shardOf[t.to.Node]
				m.relBox[dst] = append(m.relBox[dst], routedTok{t: t, seq: relSeq})
				relSeq++
			}
		}
		m.runDeliverPhase()
		if err := m.mergeCycle(); err != nil {
			return m.abort(err)
		}
		m.tel.cycleCounts(m, issue)
	}
	return m.finish()
}

// --- phase 1: select --------------------------------------------------

// selectCycle merges the shards' active lists into the global
// deterministic issue order (ascending node id — node→shard ownership
// is a partition, so the lists are disjoint and the merge never ties)
// and plans up to Processors firings, assigning global issue indices.
// Loop-tag arithmetic for the planned buckets is resolved here, caching
// the results so the parallel fire phase only reads the tag table.
func (m *sim) selectCycle() int {
	budget := m.cfg.Processors
	if budget <= 0 {
		budget = int(^uint(0) >> 1)
	}
	issue := 0
	cur := m.selCur
	for s, sh := range m.shs {
		sh.plan = sh.plan[:0]
		cur[s] = 0
	}
	for budget > 0 {
		best, bestNode := -1, 0
		for s, sh := range m.shs {
			if cur[s] < len(sh.ready.active) {
				if nd := sh.ready.active[cur[s]]; best < 0 || nd < bestNode {
					best, bestNode = s, nd
				}
			}
		}
		if best < 0 {
			break
		}
		sh := m.shs[best]
		b := &sh.ready.buckets[bestNode]
		take := len(b.items) - b.head
		if take > budget {
			take = budget
		}
		m.warmLoopTags(bestNode, b)
		sh.plan = append(sh.plan, planEntry{node: bestNode, take: take, base: issue})
		issue += take
		budget -= take
		cur[best]++
	}
	return issue
}

// warmLoopTags pre-resolves tag arithmetic for a planned loop bucket so
// the fire phase can read the results from the tag-table caches.
// Resolution errors are deliberately ignored: the affected firing's
// cache lookup will miss, deferring it to the sequential retire pass,
// which re-runs the arithmetic and reports the error at the firing's
// exact position in issue order.
func (m *sim) warmLoopTags(node int, b *bucket) {
	switch m.g.Nodes[node].Kind {
	case dfg.LoopEntry:
		for i := b.head; i < len(b.items); i++ {
			f := &b.items[i]
			if f.port == 0 {
				m.tags.pushID(f.tgID)
			} else {
				_, _ = m.tags.bumpID(f.tgID)
			}
		}
	case dfg.LoopExit:
		for i := b.head; i < len(b.items); i++ {
			_, _ = m.tags.popID(b.items[i].tgID)
		}
	}
}

// --- phase 2: fire ----------------------------------------------------

// runFirePhase evaluates the cycle's planned firings, on the pool for
// wide cycles, inline for narrow ones (same results either way — the
// threshold trades dispatch overhead only).
func (m *sim) runFirePhase(issue int) {
	if issue == 0 {
		return
	}
	fn := m.fireShard
	if m.tel != nil {
		// Per-shard busy time accumulates in plain shard-local scratch;
		// the cycle merge folds it into the registry in shard order.
		fn = func(sh *shardState) {
			t0 := time.Now()
			m.fireShard(sh)
			sh.telFireNs += time.Since(t0).Nanoseconds()
		}
	}
	if issue < shardedPhaseMin {
		for _, sh := range m.shs {
			fn(sh)
		}
		return
	}
	if m.tel != nil {
		var barNs int64
		m.pool.runTimed(fn, &barNs)
		m.tel.barFire.Observe(barNs, telemetry.TimeBuckets)
		return
	}
	m.pool.run(fn)
}

func (m *sim) fireShard(sh *shardState) {
	sh.ready.takePlanned(sh.plan, func(f *firing, gi int) {
		m.fireOneSharded(sh, f, gi)
	})
}

// fireOneSharded evaluates one firing if it is pure — reading only its
// operands, the immutable graph, and the (phase-wise read-only) tag
// caches — routing its output tokens into the destination shards'
// inboxes. Impure firings, and pure ones that fault, defer to the
// sequential retire pass.
func (m *sim) fireOneSharded(sh *shardState, f *firing, gi int) {
	n := m.g.Nodes[f.node]
	tg := f.tgID
	port, val, ok, err := evalPure(n, f.vals)
	if err != nil {
		sh.recordFireEvent(m, f, gi, 0)
		sh.recordFireErr(gi, err)
		return
	}
	if !ok {
		// Loop tag rewrites are pure once phase 1 cached their results.
		switch n.Kind {
		case dfg.LoopEntry:
			if f.port == 0 {
				tg, ok = m.tags.peekPush(f.tgID)
			} else {
				tg, ok = m.tags.peekBump(f.tgID)
			}
		case dfg.LoopExit:
			tg, ok = m.tags.peekPop(f.tgID)
		}
		if !ok {
			sh.impure = append(sh.impure, impureFiring{gi: gi, f: *f})
			return
		}
		val = f.vals[0]
	}
	var dep int32 = -1
	if m.dag {
		// The id Fire will assign this firing in the retire pass: ids are
		// dense call indices, and retire calls Fire once per firing in gi
		// order starting from dagBase.
		dep = m.dagBase + int32(gi)
	}
	targets := m.g.OutTargets(f.node, port)
	seqBase := int64(gi+1) * m.fanStride
	for k, t := range targets {
		dst := m.shardOf[t.Node]
		sh.outbox[dst] = append(sh.outbox[dst], routedTok{
			t: tok{to: t, val: val, tgID: tg, dep: dep, dep2: -1}, seq: seqBase + int64(k),
		})
	}
	sh.recordFireEvent(m, f, gi, len(targets))
	sh.putVals(f.vals)
	// Pure firings executed here feed the fire/retire split counter;
	// plain shard-local scratch, folded at the cycle merge.
	sh.telPureFired++
}

func (sh *shardState) recordFireEvent(m *sim, f *firing, gi, emitted int) {
	if m.col == nil {
		return
	}
	sh.fireEvs = append(sh.fireEvs, fireEvent{
		gi: gi, node: int32(f.node), port: int32(f.port), consumed: int32(len(f.vals)),
		emitted: int32(emitted), inDep: f.dep, tgID: f.tgID, deps: f.deps,
	})
}

// recordFireErr keeps the shard's earliest fire-phase error in issue
// order; the retire pass aborts at the global minimum, exactly where
// the sequential engine would have.
func (sh *shardState) recordFireErr(gi int, err error) {
	if sh.fireErr == nil || gi < sh.fireErrGi {
		sh.fireErr, sh.fireErrGi = err, gi
	}
}

// --- phase 3: retire --------------------------------------------------

// retireCycle replays the cycle's firings in ascending global issue
// order: pure firings replay their deferred observations (collector
// Fire/Emitted, journal), impure firings execute here — the only code
// that mutates shared simulator state, running on one goroutine in
// exactly the sequential order. Immediate emissions of impure firings
// are routed into the sequential-writer inbox lane with their (gi,
// emission index) sequence keys.
func (m *sim) retireCycle() error {
	var pureErr error
	pureErrGi := 0
	for _, sh := range m.shs {
		if sh.fireErr != nil && (pureErr == nil || sh.fireErrGi < pureErrGi) {
			pureErr, pureErrGi = sh.fireErr, sh.fireErrGi
		}
	}
	evCur, imCur := m.evCur, m.imCur
	for s := range m.shs {
		evCur[s], imCur[s] = 0, 0
	}
	for {
		best, bestGi, bestIsEv := -1, 0, false
		for s, sh := range m.shs {
			if evCur[s] < len(sh.fireEvs) {
				if g := sh.fireEvs[evCur[s]].gi; best < 0 || g < bestGi {
					best, bestGi, bestIsEv = s, g, true
				}
			}
			if imCur[s] < len(sh.impure) {
				if g := sh.impure[imCur[s]].gi; best < 0 || g < bestGi {
					best, bestGi, bestIsEv = s, g, false
				}
			}
		}
		// A fire-phase error with no recorded observation (collector
		// disabled) aborts as soon as issue order reaches it.
		if pureErr != nil && (best < 0 || pureErrGi < bestGi) {
			return pureErr
		}
		if best < 0 {
			break
		}
		sh := m.shs[best]
		if bestIsEv {
			ev := &sh.fireEvs[evCur[best]]
			evCur[best]++
			m.col.Fire(int(ev.node), m.cycle, 1, int(ev.consumed), int(ev.port), ev.inDep, ev.deps, m.tags.key(ev.tgID))
			m.col.Emitted(int(ev.node), int(ev.emitted))
			if pureErr != nil && ev.gi == pureErrGi {
				return pureErr
			}
		} else {
			imf := &sh.impure[imCur[best]]
			imCur[best]++
			f := &imf.f
			if m.col != nil {
				f.dep = m.col.Fire(f.node, m.cycle, m.costOf(f.node), len(f.vals), f.port, f.dep, f.deps, m.tags.key(f.tgID))
			} else {
				f.dep = -1
			}
			m.curDep, m.curDep2 = f.dep, -1
			mark := len(m.emitBuf)
			if err := m.fire(f); err != nil {
				return err
			}
			seqBase := int64(imf.gi+1) * m.fanStride
			for k := range m.emitBuf[mark:] {
				t := m.emitBuf[mark+k]
				dst := m.shardOf[t.to.Node]
				m.seqBox[dst] = append(m.seqBox[dst], routedTok{t: t, seq: seqBase + int64(k)})
			}
			m.emitBuf = m.emitBuf[:mark]
			sh.putVals(f.vals)
			if m.tel != nil {
				m.tel.retireFirings.Add(1)
			}
		}
		if m.cfg.Deadline > 0 {
			if err := m.overDeadline(); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- phase 4: deliver + merge -----------------------------------------

// runDeliverPhase lands the cycle's routed tokens on their owning
// shards, on the pool when the token volume is worth it.
func (m *sim) runDeliverPhase() {
	total := 0
	for _, sh := range m.shs {
		for _, ob := range sh.outbox {
			total += len(ob)
		}
	}
	for _, b := range m.seqBox {
		total += len(b)
	}
	for _, b := range m.relBox {
		total += len(b)
	}
	if total == 0 {
		return
	}
	fn := m.deliverShard
	if m.tel != nil {
		fn = func(sh *shardState) {
			t0 := time.Now()
			m.deliverShard(sh)
			sh.telDelivNs += time.Since(t0).Nanoseconds()
		}
	}
	if total < shardedPhaseMin {
		for _, sh := range m.shs {
			fn(sh)
		}
		return
	}
	if m.tel != nil {
		var barNs int64
		m.pool.runTimed(fn, &barNs)
		m.tel.barDeliv.Observe(barNs, telemetry.TimeBuckets)
		return
	}
	m.pool.run(fn)
}

// deliverShard drains every inbox addressed to sh — one per source
// shard, plus the sequential-writer lane (impure emissions, start
// tokens) and the released split-phase completions — merged by sequence
// key, i.e. in exactly the order the sequential engine would have
// delivered these tokens. Each stream is already seq-ascending, so this
// is a k-way merge with k = W+2.
func (m *sim) deliverShard(sh *shardState) {
	d := sh.id
	W := len(m.shs)
	heads := sh.heads
	for i := range heads {
		heads[i] = 0
	}
	stream := func(i int) []routedTok {
		switch {
		case i < W:
			return m.shs[i].outbox[d]
		case i == W:
			return m.seqBox[d]
		default:
			return m.relBox[d]
		}
	}
	for {
		best := -1
		var bestSeq int64
		for i := 0; i < W+2; i++ {
			s := stream(i)
			if heads[i] < len(s) {
				if q := s[heads[i]].seq; best < 0 || q < bestSeq {
					best, bestSeq = i, q
				}
			}
		}
		if best < 0 {
			break
		}
		rt := &stream(best)[heads[best]]
		heads[best]++
		sh.delivered++
		if err := m.deliverOnce(sh, rt.t, rt.seq); err != nil {
			// Record the earliest error in sequential delivery order and
			// stop this shard: tokens past an abort are never delivered by
			// the sequential engine either, and other shards' deliveries
			// below the error's seq are unaffected (shard state is
			// disjoint).
			sh.delivErr, sh.delivErrSeq = err, rt.seq
			return
		}
	}
}

// mergeCycle is the sequential epilogue of the delivery phase: it folds
// the per-shard delivered-token counts into the global explosion
// budget, replays the matching-store events in sequential delivery
// order — reproducing Matches, PeakMatchStore, and collector Wait
// events byte-exactly — and surfaces the earliest delivery error. All
// per-cycle scratch is reset here.
func (m *sim) mergeCycle() error {
	// Telemetry folds the parallel phases' per-shard scratch (busy
	// times, pure-firing counts, occupancy, the traffic matrix) before
	// anything below resets it.
	m.tel.mergeSharded(m)
	var minErr error
	minSeq := int64(^uint64(0) >> 1)
	for _, sh := range m.shs {
		m.delivered += sh.delivered
		sh.delivered = 0
		if sh.delivErr != nil && sh.delivErrSeq < minSeq {
			minErr, minSeq = sh.delivErr, sh.delivErrSeq
		}
	}
	cur := m.evCur
	for s := range m.shs {
		cur[s] = 0
	}
	for {
		best := -1
		var bestSeq int64
		for s, sh := range m.shs {
			if cur[s] < len(sh.waits) {
				if q := sh.waits[cur[s]].seq; best < 0 || q < bestSeq {
					best, bestSeq = s, q
				}
			}
		}
		if best < 0 || bestSeq >= minSeq {
			break
		}
		ev := &m.shs[best].waits[cur[best]]
		cur[best]++
		m.matchLive += int(ev.delta)
		if ev.delta >= 0 {
			m.stats.Matches++
			if m.col != nil {
				m.col.Wait(int(ev.node), m.cycle, int(ev.port), ev.dep, m.tags.key(ev.tgID))
			}
			if m.matchLive > m.stats.PeakMatchStore {
				m.stats.PeakMatchStore = m.matchLive
			}
		}
	}
	for _, sh := range m.shs {
		sh.waits = sh.waits[:0]
		sh.fireEvs = sh.fireEvs[:0]
		sh.impure = sh.impure[:0]
		sh.plan = sh.plan[:0]
		sh.fireErr, sh.delivErr = nil, nil
		for d := range sh.outbox {
			sh.outbox[d] = sh.outbox[d][:0]
		}
	}
	for d := range m.seqBox {
		m.seqBox[d] = m.seqBox[d][:0]
	}
	for d := range m.relBox {
		m.relBox[d] = m.relBox[d][:0]
	}
	if minErr != nil {
		return minErr
	}
	if m.delivered > 8*m.cfg.MaxOps+1024 {
		return machcheck.Newf(machcheck.CyclesExceeded, "machine",
			"delivered %d tokens (token explosion?)", m.delivered)
	}
	return nil
}
