package chanexec_test

import (
	"fmt"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/chanexec"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// TestCrossEngineFiringCountsAgree asserts dataflow determinacy at the
// operator level: the cycle-driven machine — under every scheduling
// regime it offers (unlimited processors, a tight processor bound, a
// seeded-random issue order, and the four-worker sharded engine) — and the
// goroutine-per-node channel engine must fire every node exactly the
// same number of times on every workload. Scheduling freedom may reorder
// firings but never add or remove one, and every engine must converge on
// the same final store.
func TestCrossEngineFiringCountsAgree(t *testing.T) {
	schemas := []translate.Options{
		{Schema: translate.Schema2},
		{Schema: translate.Schema2Opt},
	}
	variants := []struct {
		name string
		cfg  machine.Config
	}{
		{"p0", machine.Config{}},
		{"p1", machine.Config{Processors: 1}},
		{"p3", machine.Config{Processors: 3}},
		{"p0-rand", machine.Config{RandomSeed: 42}},
		{"p0-w4", machine.Config{Workers: 4}},
	}
	for _, w := range workloads.All() {
		for _, opt := range schemas {
			g := cfg.MustBuild(w.Parse())
			res, err := translate.Translate(g, opt)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}

			counters := obs.NewNodeCounters(res.Graph.NumNodes())
			cout, err := chanexec.Run(res.Graph, chanexec.Config{Counters: counters})
			if err != nil {
				t.Fatalf("%s/%v chanexec: %v", w.Name, opt.Schema, err)
			}
			cf := counters.Firings()

			for _, v := range variants {
				tag := fmt.Sprintf("%s/%v/%s", w.Name, opt.Schema, v.name)
				col := obs.NewCollector(res.Graph, obs.Options{})
				mc := v.cfg
				mc.Collector = col
				mout, err := machine.Run(res.Graph, mc)
				if err != nil {
					t.Fatalf("%s machine: %v", tag, err)
				}
				mrep := col.Report(mout.Stats.Cycles, nil)

				if mout.Stats.Ops != int(cout.Ops) {
					t.Errorf("%s: total ops differ: machine %d, chanexec %d",
						tag, mout.Stats.Ops, cout.Ops)
				}
				mf := mrep.NodeFirings()
				if len(mf) != len(cf) {
					t.Fatalf("%s: counter lengths differ: %d vs %d", tag, len(mf), len(cf))
				}
				for id := range mf {
					if mf[id] != cf[id] {
						t.Errorf("%s: node %s fired %d times on machine, %d on chanexec",
							tag, res.Graph.Nodes[id], mf[id], cf[id])
					}
				}
				if mout.Store.Snapshot() != cout.Store.Snapshot() {
					t.Errorf("%s: final stores differ", tag)
				}
			}
		}
	}
}
