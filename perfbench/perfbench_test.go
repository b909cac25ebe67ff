package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// runOnce runs the benchmark in-process for the shortest measurement it
// allows (whole passes, at least minJobs jobs) and returns its output.
func runOnce(t *testing.T, workload, seed string, trace int) string {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "0",
		"--trace", []string{"0", "1"}[trace], "--trace-dir", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %s", workload, trace, code, errOut.String())
	}
	return out.String()
}

// printed returns the metric lines of an output, by name.
func printed(out string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "metric" {
			m[f[1]] = f[2]
		}
	}
	return m
}

// resultLine decodes the last line of an output.
func resultLine(t *testing.T, out string) (correct bool, metrics map[string]json.RawMessage) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r struct {
		Correct bool                       `json:"correct"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return r.Correct, r.Metrics
}

type benchmarkSpec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func loadSpec(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range s.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return e2e, perLayer
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestDeterministicCountsAndNames runs every workload twice untraced and
// once traced on one seed. The deterministic counts must repeat exactly,
// every run must be correct, and the printed metric names must be exactly
// the names BENCHMARK.json lists, with the result line carrying exactly
// the end-to-end metrics untraced and the per-layer metrics traced.
func TestDeterministicCountsAndNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, perLayer := loadSpec(t)
	all := map[string]bool{}
	for _, n := range append(append([]string(nil), e2e...), perLayer...) {
		all[n] = true
	}
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			names := map[string]bool{}
			var first map[string]string
			for i := 0; i < 2; i++ {
				out := runOnce(t, w.name, "7", 0)
				m := printed(out)
				for n := range m {
					names[n] = true
				}
				correct, res := resultLine(t, out)
				if !correct {
					t.Fatalf("run %d not correct:\n%s", i, out)
				}
				if got, want := keys(res), sorted(e2e); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("untraced result metrics %v, want %v", got, want)
				}
				if first == nil {
					first = m
					continue
				}
				for _, n := range []string{"graph_nodes", "sim_cycles", "sim_firings", "failed_share"} {
					if m[n] != first[n] {
						t.Errorf("%s: %s then %s", n, first[n], m[n])
					}
				}
			}
			out := runOnce(t, w.name, "7", 1)
			for n := range printed(out) {
				names[n] = true
			}
			correct, res := resultLine(t, out)
			if !correct {
				t.Fatalf("traced run not correct:\n%s", out)
			}
			if got, want := keys(res), sorted(perLayer); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("traced result metrics %v, want %v", got, want)
			}
			if got, want := keys(names), keys(all); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("printed metric names %v, BENCHMARK.json names %v", got, want)
			}
		})
	}
}

// TestCompareRefusesDifferentInputs: runs are comparable only when their
// workload and input digest match.
func TestCompareRefusesDifferentInputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, digest string) string {
		p := filepath.Join(dir, name)
		body := "inputs workload=execute digest=" + digest + " cases=1 classes=kernel:1\nmetric jobs_per_s 10 1/s\n"
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a", "0011"), write("b", "0011"), write("c", "2233")
	var out bytes.Buffer
	if code := compareRuns([]string{a, b}, &out, io.Discard); code != 0 {
		t.Fatalf("same digest: exit %d", code)
	}
	if !strings.Contains(out.String(), "jobs_per_s") {
		t.Errorf("compare printed no metrics:\n%s", out.String())
	}
	if code := compareRuns([]string{a, c}, io.Discard, io.Discard); code != 2 {
		t.Errorf("different digests: exit %d, want 2", code)
	}
}

// TestInputsFollowTheSeed: the same seed gives the same inputs, another
// seed other ones.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloadList {
		a, b, c := digest(w.cases(1)), digest(w.cases(1)), digest(w.cases(2))
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a, b)
		}
		if a == c && w.name != "execute" {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
	}
}
