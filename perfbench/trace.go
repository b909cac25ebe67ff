package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one layer call timed from the benchmark's side.
type span struct {
	name       string
	job        int
	parent     int // index of the parent span, -1 for none
	start, end time.Duration
	work       int64  // firings for machine spans
	alloc      uint64 // heap bytes allocated during the call (machine spans)
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, job, parent int) int {
	t.spans = append(t.spans, span{name: name, job: job, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.epoch) }

// layerTotals sums span durations, work and allocations by name.
type layerTotals struct {
	dur   map[string]time.Duration
	work  map[string]int64
	alloc map[string]uint64
	calls map[string]int
	// jobWall is the summed duration of job spans; covered the part of it
	// the job's direct children cover.
	jobWall, covered time.Duration
	jobs             int
}

func (t *tracer) totals() *layerTotals {
	lt := &layerTotals{
		dur: map[string]time.Duration{}, work: map[string]int64{},
		alloc: map[string]uint64{}, calls: map[string]int{},
	}
	for _, s := range t.spans {
		d := s.end - s.start
		if s.name == "job" {
			lt.jobWall += d
			lt.jobs++
			continue
		}
		lt.dur[s.name] += d
		lt.work[s.name] += s.work
		lt.alloc[s.name] += s.alloc
		lt.calls[s.name]++
		if s.parent >= 0 && t.spans[s.parent].name == "job" {
			lt.covered += clip(s, t.spans[s.parent])
		}
	}
	return lt
}

// clip is the part of s that lies inside p. A job's children run one
// after another, so summing their clipped durations gives the covered
// time without double counting.
func clip(s, p span) time.Duration {
	lo, hi := max(s.start, p.start), min(s.end, p.end)
	if hi < lo {
		return 0
	}
	return hi - lo
}

// perJobMs is the mean time per traced job spent in spans of name.
func (lt *layerTotals) perJobMs(name string) float64 {
	if lt.jobs == 0 {
		return 0
	}
	return float64(lt.dur[name]) / 1e6 / float64(lt.jobs)
}

// unaccounted is the share of job wall time outside every layer span.
func (lt *layerTotals) unaccounted() float64 {
	if lt.jobWall == 0 {
		return 0
	}
	return 1 - float64(lt.covered)/float64(lt.jobWall)
}

// maxTraceEvents caps the events written to the trace file; the metrics
// use every span. A run of short jobs makes far more spans than a trace
// viewer needs.
const maxTraceEvents = 200_000

// writePerfetto writes the spans in the Chrome trace-event JSON format,
// which Perfetto and chrome://tracing load.
func (t *tracer) writePerfetto(path string) (written int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i == maxTraceEvents {
			break
		}
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		args := map[string]any{"job": s.job, "id": i, "parent": s.parent}
		if s.work != 0 {
			args["firings"] = s.work
		}
		ev := event{Name: s.name, Cat: "perfbench", Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1, Args: args}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return 0, err
		}
		written++
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return written, f.Close()
}

// runtimeStats reads the Go runtime's cumulative allocation and CPU
// counters.
type runtimeStats struct {
	allocBytes        uint64
	gcCPU, cpu, idleC float64
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		cpu:        s[2].Value.Float64(),
		idleC:      s[3].Value.Float64(),
	}
}

// allocBytes reads only the cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: runtimeSampleNames[0]}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcShare is GC CPU time as a share of the CPU time the process used
// (available minus idle) between a and b.
func gcShare(a, b runtimeStats) float64 {
	busy := (b.cpu - a.cpu) - (b.idleC - a.idleC)
	if busy <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / busy
}
