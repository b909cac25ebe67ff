package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// savedRun is what compare reads back from a run's saved output.
type savedRun struct {
	workload, digest string
	names            []string
	values, units    map[string]string
}

func readRun(path string) (*savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &savedRun{values: map[string]string{}, units: map[string]string{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) >= 3 && fields[0] == "inputs":
			for _, kv := range fields[1:] {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					r.workload = v
				case "digest":
					r.digest = v
				}
			}
		case len(fields) == 4 && fields[0] == "metric":
			r.names = append(r.names, fields[1])
			r.values[fields[1]], r.units[fields[1]] = fields[2], fields[3]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.digest == "" {
		return nil, fmt.Errorf("%s: no inputs line; not a perfbench run", path)
	}
	return r, nil
}

// compareRuns prints two saved runs' metrics side by side. It refuses runs
// of different workloads or input digests, whose numbers measure different
// inputs.
func compareRuns(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare RUN_A.txt RUN_B.txt")
		return 2
	}
	a, err := readRun(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := readRun(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if a.workload != b.workload || a.digest != b.digest {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: %s has workload %s digest %s, %s has workload %s digest %s\n",
			args[0], a.workload, a.digest, args[1], b.workload, b.digest)
		return 2
	}
	fmt.Fprintf(stdout, "workload=%s digest=%s\n", a.workload, a.digest)
	for _, n := range a.names {
		bv, ok := b.values[n]
		if !ok {
			continue
		}
		change := ""
		x, errA := strconv.ParseFloat(a.values[n], 64)
		y, errB := strconv.ParseFloat(bv, 64)
		if errA == nil && errB == nil && x != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(y-x)/x)
		}
		fmt.Fprintf(stdout, "%-30s %14s %14s %9s %s\n", n, a.values[n], bv, change, a.units[n])
	}
	return 0
}
