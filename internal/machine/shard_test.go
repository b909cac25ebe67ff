package machine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ctdf/internal/cfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/obs"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// forceShardPool drops the inline-execution threshold so every cycle of
// every workload exercises the worker pool and the cross-shard merges,
// however narrow; restores on cleanup.
func forceShardPool(t *testing.T) {
	t.Helper()
	old := shardedPhaseMin
	shardedPhaseMin = 1
	t.Cleanup(func() { shardedPhaseMin = old })
}

// shardWorkerCounts are the worker counts the byte-exactness tests pin;
// 2 and 3 stress uneven partitions, 8 exceeds the host's cores on CI so
// the pool multiplexes shards onto fewer goroutines.
var shardWorkerCounts = []int{2, 3, 4, 8}

// TestShardedObservablyIdentical pins the sharded engine's contract:
// any worker count must reproduce the sequential run byte-for-byte —
// snapshot, cycle count, op counts, matching statistics, and the
// per-node firing vector — across every workload × golden config cell.
// The whole suite runs under -race in CI (scripts/verify.sh), which is
// what holds the parallel phases to the shared-nothing discipline.
func TestShardedObservablyIdentical(t *testing.T) {
	forceShardPool(t)
	for _, w := range workloads.All() {
		for _, gc := range goldenConfigs() {
			w, gc := w, gc
			t.Run(w.Name+"/"+gc.Name, func(t *testing.T) {
				seq := goldenRun(t, w, gc)
				for _, workers := range shardWorkerCounts {
					g := cfg.MustBuild(w.Parse())
					res, err := translate.Translate(g, gc.Opt)
					if err != nil {
						t.Fatalf("translate: %v", err)
					}
					col := obs.NewCollector(res.Graph, obs.Options{})
					out, err := Run(res.Graph, Config{
						Processors: gc.Processors,
						MemLatency: gc.MemLatency,
						Collector:  col,
						Workers:    workers,
					})
					if err != nil {
						t.Fatalf("W=%d: %v", workers, err)
					}
					rep := col.Report(out.Stats.Cycles, nil)
					got := goldenCell{
						Snapshot:       out.Store.Snapshot(),
						Cycles:         out.Stats.Cycles,
						Ops:            out.Stats.Ops,
						MemOps:         out.Stats.MemOps,
						Matches:        out.Stats.Matches,
						MaxParallelism: out.Stats.MaxParallelism,
						PeakMatchStore: out.Stats.PeakMatchStore,
						Firings:        rep.NodeFirings(),
					}
					if d := diffCell(seq, got); d != "" {
						t.Errorf("W=%d diverged from sequential:\n%s", workers, d)
					}
				}
			})
		}
	}
}

// TestShardedCriticalPathIdentical checks the firing-DAG id precompute:
// pure firings stamp their tokens with dagBase+gi before Fire runs, so
// the recorded DAG — and therefore the extracted critical path — must
// be identical to the sequential engine's at any worker count.
func TestShardedCriticalPathIdentical(t *testing.T) {
	forceShardPool(t)
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func(workers int) *obs.CriticalPath {
				g := cfg.MustBuild(w.Parse())
				res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
				if err != nil {
					t.Fatalf("translate: %v", err)
				}
				col := obs.NewCollector(res.Graph, obs.Options{CriticalPath: true})
				out, err := Run(res.Graph, Config{MemLatency: 3, Collector: col, Workers: workers})
				if err != nil {
					t.Fatalf("W=%d: %v", workers, err)
				}
				return col.Report(out.Stats.Cycles, nil).CriticalPath
			}
			seq := run(1)
			for _, workers := range shardWorkerCounts {
				got := run(workers)
				if seq == nil || got == nil {
					t.Fatalf("W=%d: missing critical path (seq=%v got=%v)", workers, seq, got)
				}
				if seq.Length != got.Length || seq.Ops != got.Ops {
					t.Errorf("W=%d critical path diverged: sequential length=%d ops=%d, sharded length=%d ops=%d",
						workers, seq.Length, seq.Ops, got.Length, got.Ops)
				}
			}
		})
	}
}

// TestShardedErrorsMatchSequential checks that a fire-phase operator
// fault (division by zero) surfaces the identical typed machine check —
// first in issue order — even though shard workers evaluate the batch
// out of order.
func TestShardedErrorsMatchSequential(t *testing.T) {
	forceShardPool(t)
	w := workloads.Workload{Name: "div0", Source: "var x, y\nx := 1 / y\n"}
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	_, seqErr := Run(res.Graph, Config{})
	if seqErr == nil {
		t.Fatal("expected sequential engine to fault")
	}
	for _, workers := range shardWorkerCounts {
		_, shErr := Run(res.Graph, Config{Workers: workers})
		if shErr == nil {
			t.Fatalf("W=%d: expected fault", workers)
		}
		if seqErr.Error() != shErr.Error() {
			t.Errorf("W=%d fault text diverged:\nseq: %v\ngot: %v", workers, seqErr, shErr)
		}
	}
}

// TestShardedAbortMatchesSequential drives a runaway loop into the
// MaxCycles abort: producers and consumers of the loop's tokens sit on
// different shards, and the abort — cycle number, stuck-token
// diagnostics, partial statistics — must come out exactly as in the
// sequential engine.
func TestShardedAbortMatchesSequential(t *testing.T) {
	forceShardPool(t)
	w := workloads.Workload{Name: "runaway", Source: "var x\nwhile x < 1 {\n  x := x - 1\n}\n"}
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	run := func(workers int) (Stats, error) {
		out, err := Run(res.Graph, Config{MaxCycles: 200, Workers: workers})
		if out == nil {
			t.Fatalf("W=%d: aborted runs must still return a partial outcome", workers)
		}
		return out.Stats, err
	}
	seqStats, seqErr := run(1)
	if seqErr == nil || !errors.Is(seqErr, machcheck.CyclesExceeded) {
		t.Fatalf("expected CyclesExceeded, got %v", seqErr)
	}
	for _, workers := range shardWorkerCounts {
		gotStats, gotErr := run(workers)
		if gotErr == nil || gotErr.Error() != seqErr.Error() {
			t.Errorf("W=%d abort diverged:\nseq: %v\ngot: %v", workers, seqErr, gotErr)
		}
		if fmt.Sprint(seqStats) != fmt.Sprint(gotStats) {
			t.Errorf("W=%d partial stats diverged:\nseq: %+v\ngot: %+v", workers, seqStats, gotStats)
		}
	}
}

// TestShardedDeadlineAborts checks the wall-clock deadline fires under
// the sharded engine too (the abort cycle is wall-clock dependent, so
// only the check type is pinned).
func TestShardedDeadlineAborts(t *testing.T) {
	forceShardPool(t)
	w := workloads.MustByName("fib-iterative")
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	out, err := Run(res.Graph, Config{Deadline: time.Nanosecond, Workers: 4})
	if err == nil || !errors.Is(err, machcheck.Deadline) {
		t.Fatalf("expected Deadline abort, got %v", err)
	}
	if out == nil {
		t.Fatal("deadline abort must return a partial outcome")
	}
}

// TestShardedSeededRandomDeterminacy pins that Workers never changes a
// seeded-random run: seeded issue takes the one-shard path, so W=2, 4
// and 8 must reproduce the W=1 run byte-for-byte — statistics (cycles,
// profile, matching-store peaks), final store, and per-node firing
// vector.
func TestShardedSeededRandomDeterminacy(t *testing.T) {
	forceShardPool(t)
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func(workers int) (string, []int64, Stats) {
				g := cfg.MustBuild(w.Parse())
				res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
				if err != nil {
					t.Fatalf("translate: %v", err)
				}
				col := obs.NewCollector(res.Graph, obs.Options{})
				out, err := Run(res.Graph, Config{Processors: 3, MemLatency: 2, RandomSeed: 42, Collector: col, Workers: workers})
				if err != nil {
					t.Fatalf("W=%d: %v", workers, err)
				}
				return out.Store.Snapshot(), col.Report(out.Stats.Cycles, nil).NodeFirings(), out.Stats
			}
			snap1, fires1, stats1 := run(1)
			for _, workers := range []int{2, 4, 8} {
				snap, fires, stats := run(workers)
				if snap != snap1 {
					t.Errorf("W=%d: snapshot diverged from W=1:\nW=1: %s\nW=%d: %s", workers, snap1, workers, snap)
				}
				if fmt.Sprint(fires) != fmt.Sprint(fires1) {
					t.Errorf("W=%d: firing vector diverged from W=1:\nW=1: %v\nW=%d: %v", workers, fires1, workers, fires)
				}
				if !reflect.DeepEqual(stats, stats1) {
					t.Errorf("W=%d: stats diverged from W=1:\nW=1: %+v\nW=%d: %+v", workers, stats1, workers, stats)
				}
			}
		})
	}
}

// TestShardedWorkersValidation pins the Workers knob's edges: negative
// rejected, absurd counts capped rather than honored.
func TestShardedWorkersValidation(t *testing.T) {
	w := workloads.MustByName("fib-iterative")
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if _, err := Run(res.Graph, Config{Workers: -1}); !errors.Is(err, machcheck.InvalidConfig) {
		t.Errorf("Workers=-1: want InvalidConfig, got %v", err)
	}
	if _, err := Run(res.Graph, Config{Workers: 100000}); err != nil {
		t.Errorf("Workers=100000 should cap and run, got %v", err)
	}
}
