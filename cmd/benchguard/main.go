// Command benchguard is the CI benchmark-regression gate: it parses
// `go test -bench` output (stdin or -input), compares each benchmark's ns/op
// against the go_bench baselines committed in BENCH_results.json, and exits
// non-zero when a benchmark regressed by more than -tolerance or when a
// baseline has no live result. The second rule keeps a renamed or deleted
// benchmark from leaving the gate silently: rerun it, or delete its row.
//
// Record or refresh baselines from the output of every command the CI gate
// step runs (-update merges, so rows it does not see keep their values):
//
//	go test -run '^$' -bench ... -cpu 1 ./pkg >> bench_live.txt   # each command
//	go run ./cmd/benchguard -update -input bench_live.txt
//
// Gate a change (the CI bench-smoke job):
//
//	go run ./cmd/benchguard -input bench_live.txt
//
// Always pass -cpu 1: the committed baselines were recorded at GOMAXPROCS 1,
// and at a higher GOMAXPROCS the parallel training benches speed up while
// the single-threaded ones do not, which the median calibration below
// reports as regressions of the latter.
//
// CI runners are not the machine that recorded the baselines, so raw ns/op
// ratios carry a machine-speed factor common to every benchmark. With
// -calibrate (the default) benchguard divides each live/baseline ratio by
// the median ratio across all compared benchmarks before applying the
// tolerance: a uniformly slower runner cancels out, while one benchmark
// regressing relative to the rest still trips the gate. -calibrate=false
// compares raw ratios (right when baseline and runner are the same host).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// parseBenchOutput extracts name → ns/op from `go test -bench` output.
// Sub-benchmark names keep their slash path; the trailing -GOMAXPROCS
// suffix is stripped so baselines survive runner core-count changes.
func parseBenchOutput(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// name iterations value "ns/op" [more value/unit pairs]
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			ns, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad ns/op value %q", sc.Text(), fields[i])
			}
			out[normalizeName(fields[0])] = ns
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// normalizeName drops the -GOMAXPROCS suffix go test appends to benchmark
// names (Benchmark/sub-8 → Benchmark/sub).
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// checkRow is one compared benchmark.
type checkRow struct {
	Name       string
	BaseNs     float64
	LiveNs     float64
	Ratio      float64 // live/base after calibration
	Regression bool
}

// checkRegressions compares live timings against baselines. Only benchmarks
// present in both are compared. When calibrate is set, each ratio is divided
// by the median live/base ratio so a uniform machine-speed shift cancels.
func checkRegressions(live, base map[string]float64, tolerance float64, calibrate bool) []checkRow {
	names := make([]string, 0, len(live))
	for name := range live {
		if b, ok := base[name]; ok && b > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ratios := make([]float64, len(names))
	for i, name := range names {
		ratios[i] = live[name] / base[name]
	}
	shift := 1.0
	if calibrate && len(ratios) > 0 {
		shift = median(ratios)
	}
	rows := make([]checkRow, len(names))
	for i, name := range names {
		r := ratios[i] / shift
		rows[i] = checkRow{
			Name:       name,
			BaseNs:     base[name],
			LiveNs:     live[name],
			Ratio:      r,
			Regression: r > 1+tolerance,
		}
	}
	return rows
}

// missingLive lists, sorted, the baselines that have no live result.
func missingLive(live, base map[string]float64) []string {
	var names []string
	for name := range base {
		if _, ok := live[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// loadBaselines reads the go_bench section of the results document.
func loadBaselines(path string) (map[string]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		GoBench map[string]float64 `json:"go_bench"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.GoBench, nil
}

// updateBaselines merges live timings into the document's go_bench section,
// preserving every other section byte-for-byte at the value level.
func updateBaselines(path string, live map[string]float64) error {
	doc := map[string]json.RawMessage{}
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	merged := map[string]float64{}
	if raw, ok := doc["go_bench"]; ok {
		if err := json.Unmarshal(raw, &merged); err != nil {
			return fmt.Errorf("%s: go_bench: %w", path, err)
		}
	}
	for name, ns := range live {
		merged[name] = ns
	}
	raw, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	doc["go_bench"] = raw
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_results.json",
		"results document holding the go_bench baseline section")
	tolerance := flag.Float64("tolerance", 0.15, "allowed ns/op regression fraction")
	calibrate := flag.Bool("calibrate", true,
		"normalize by the median live/baseline ratio (cancels uniform machine-speed differences)")
	update := flag.Bool("update", false, "record the parsed timings as the new baselines and exit")
	input := flag.String("input", "", "read benchmark output from this file instead of stdin")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: unexpected argument %q: benchguard takes no arguments, and flags after one would be ignored\n", flag.Arg(0))
		os.Exit(2)
	}

	in := io.Reader(os.Stdin)
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	live, err := parseBenchOutput(in)
	if err != nil {
		return err
	}
	if len(live) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}
	if *update {
		if err := updateBaselines(*baselinePath, live); err != nil {
			return err
		}
		fmt.Printf("benchguard: recorded %d baselines in %s\n", len(live), *baselinePath)
		return nil
	}
	base, err := loadBaselines(*baselinePath)
	if err != nil {
		return err
	}
	if err := gate(os.Stdout, live, base, *tolerance, *calibrate); err != nil {
		return fmt.Errorf("%s: %w", *baselinePath, err)
	}
	return nil
}

// gate prints one verdict line per baseline and fails when a benchmark
// regressed beyond tolerance or a baseline has no live result.
func gate(w io.Writer, live, base map[string]float64, tolerance float64, calibrate bool) error {
	rows := checkRegressions(live, base, tolerance, calibrate)
	if len(rows) == 0 {
		return fmt.Errorf("no benchmarks overlap the %d baselines (run benchguard -update first)", len(base))
	}
	failed := 0
	for _, r := range rows {
		verdict := "ok"
		if r.Regression {
			verdict = "REGRESSION"
			failed++
		}
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %7.3f  %s\n", r.Name, r.BaseNs, r.LiveNs, r.Ratio, verdict)
	}
	missing := missingLive(live, base)
	for _, name := range missing {
		fmt.Fprintf(w, "%-60s %14.0f %14s %7s  %s\n", name, base[name], "-", "-", "MISSING")
	}
	var errs []string
	if failed > 0 {
		errs = append(errs, fmt.Sprintf("%d of %d benchmarks regressed beyond %.0f%%", failed, len(rows), tolerance*100))
	}
	if len(missing) > 0 {
		errs = append(errs, fmt.Sprintf("%d baselines have no live result (rerun them, or delete their go_bench rows): %s",
			len(missing), strings.Join(missing, ", ")))
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	fmt.Fprintf(w, "benchguard: %d benchmarks within %.0f%% of baseline\n", len(rows), tolerance*100)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(1)
	}
}
