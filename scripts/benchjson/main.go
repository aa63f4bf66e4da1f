// Command benchjson converts `go test -bench` output into a small JSON
// document so CI can archive benchmark runs as machine-readable artifacts
// (BENCH_<n>.json) and future PRs can chart the performance trajectory.
//
// With -baseline it additionally compares the run against a committed
// BENCH_<n>.json and exits non-zero on regression: allocs/op and B/op are
// deterministic and compared on every host, ns/op only when the baseline was
// recorded on the same CPU (wall-clock across different machines is noise,
// not signal). The tolerance is 15%, except a zero-alloc baseline, which
// must stay at exactly zero. Repeated runs (-count) compare by median ns/op.
//
// Usage: benchjson [-baseline BENCH_n.json] [bench-output-file]
//
//	(reads stdin when no bench-output-file is given)
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// result is one parsed benchmark line.
type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// document is the emitted JSON payload.
type document struct {
	GeneratedAt string   `json:"generated_at"`
	Goos        string   `json:"goos,omitempty"`
	Goarch      string   `json:"goarch,omitempty"`
	CPU         string   `json:"cpu,omitempty"`
	Results     []result `json:"results"`
}

func main() {
	baseline := flag.String("baseline", "", "committed BENCH_<n>.json to compare against; exits 1 on >15% regression")
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	doc, err := parse(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading input: %v\n", err)
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	if *baseline != "" {
		base, err := load(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if failures := compare(base, doc); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regression against %s\n", *baseline)
	}
}

// parse scans `go test -bench` output into a document.
func parse(in io.Reader) (document, error) {
	doc := document{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				doc.Results = append(doc.Results, r)
			}
		}
	}
	return doc, sc.Err()
}

// load reads a previously emitted document.
func load(path string) (document, error) {
	f, err := os.Open(path)
	if err != nil {
		return document{}, err
	}
	defer f.Close()
	var doc document
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return document{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// regressionTolerance is how much worse a metric may get before the compare
// fails. Benchmarks with a zero-alloc baseline are exempt from the slack:
// they must stay at exactly zero.
const regressionTolerance = 1.15

// baseName strips the trailing -GOMAXPROCS suffix so runs on machines with
// different core counts still pair up.
func baseName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// compare pairs benchmarks by name and reports every metric that regressed
// beyond the tolerance. Benchmarks present on only one side are skipped —
// the baseline pins the benchmarks it records, nothing more. A benchmark run
// several times (-count) is judged by every run's B/op and allocs/op and by
// its median ns/op, which host noise moves far less than any single run.
func compare(base, cur document) []string {
	current := make(map[string][]result, len(cur.Results))
	for _, r := range cur.Results {
		current[baseName(r.Name)] = append(current[baseName(r.Name)], r)
	}
	sameCPU := base.CPU != "" && base.CPU == cur.CPU
	if !sameCPU {
		fmt.Fprintf(os.Stderr, "benchjson: baseline CPU %q != current %q; comparing allocs/op and B/op only\n", base.CPU, cur.CPU)
	}
	var failures []string
	for _, b := range base.Results {
		name := baseName(b.Name)
		runs := current[name]
		for _, c := range runs {
			if b.AllocsPerOp != nil && c.AllocsPerOp != nil {
				switch {
				case *b.AllocsPerOp == 0 && *c.AllocsPerOp != 0:
					failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f, baseline is allocation-free", name, *c.AllocsPerOp))
				case *c.AllocsPerOp > *b.AllocsPerOp*regressionTolerance:
					failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f vs baseline %.0f (>15%%)", name, *c.AllocsPerOp, *b.AllocsPerOp))
				}
			}
			if b.BytesPerOp != nil && c.BytesPerOp != nil && *c.BytesPerOp > *b.BytesPerOp*regressionTolerance {
				failures = append(failures, fmt.Sprintf("%s: B/op %.0f vs baseline %.0f (>15%%)", name, *c.BytesPerOp, *b.BytesPerOp))
			}
		}
		if len(runs) == 0 {
			continue
		}
		slices.SortFunc(runs, func(x, y result) int { return cmp.Compare(x.NsPerOp, y.NsPerOp) })
		if c := runs[len(runs)/2]; sameCPU && c.NsPerOp > b.NsPerOp*regressionTolerance {
			failures = append(failures, fmt.Sprintf("%s: ns/op %.0f vs baseline %.0f (>15%%)", name, c.NsPerOp, b.NsPerOp))
		}
	}
	return failures
}

// parseBench parses one benchmark result line of the form
//
//	BenchmarkName-8  10  123 ns/op  45 B/op  6 allocs/op  7.0 custom-unit
func parseBench(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters}
	// The rest alternate value, unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		val := v
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = &val
		case "allocs/op":
			r.AllocsPerOp = &val
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = val
		}
	}
	return r, true
}
