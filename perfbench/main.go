// Command perfbench is the repository benchmark. It runs one workload
// against the tree it was built from, checks every output, and prints the
// workload's metrics as one JSON line:
//
//	bash perfbench/run.sh --workload train-expr --seed 1 --seconds 35 --trace 0
//
// Workloads (inputs in spec.json): train-expr and train-snp run full FRaC
// (frac.Train then Model.ScoreDataset) on generated replicates; serve-narrow
// and serve-wide start the fracserve binary with default flags and drive it
// with an open-loop generator. --trace 0 prints the end-to-end metrics;
// --trace 1 runs the same workload with spans recorded around each layer's
// calls and prints the per-layer metrics, writing the spans to a file.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

//go:embed spec.json
var specJSON []byte

// workloadSpec is one workload's inputs, as recorded in spec.json.
type workloadSpec struct {
	Kind           string   `json:"kind"`
	Profile        string   `json:"profile"`
	Scale          int      `json:"scale"`
	TrainFrac      float64  `json:"train_frac"`
	TrainOn        string   `json:"train_on"`
	SetupRepeats   int      `json:"setup_repeats"`
	RowsPerRequest int      `json:"rows_per_request"`
	ExplainEvery   int      `json:"explain_every"`
	ExplainK       int      `json:"explain_k"`
	LowRPS         float64  `json:"low_rps"`
	HighRPS        float64  `json:"high_rps"`
	P99LimitMs     float64  `json:"p99_limit_ms"`
	Connections    int      `json:"connections"`
	FracserveFlags []string `json:"fracserve_flags"`
}

type specDoc struct {
	Workloads map[string]workloadSpec `json:"workloads"`
	EndToEnd  map[string]metricSpec   `json:"end_to_end"`
	PerLayer  map[string]metricSpec   `json:"per_layer"`
}

// metricSpec is one metric's entry in spec.json.
type metricSpec struct {
	Unit string `json:"unit"`
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line perfbench prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: its workload, the operation counts every
// check feeds, and the metrics it reports.
type bench struct {
	name      string
	spec      workloadSpec
	seed      uint64
	seconds   time.Duration
	work      string // per-run scratch directory, removed at exit
	fracserve string

	attempted, failed int64
	misses            []string // first few failed checks, for stderr

	metrics map[string]metric
	spans   *spanStore // nil unless --trace 1
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// attempt counts n operations whose outputs are checked.
func (b *bench) attempt(n int) { b.attempted += int64(n) }

// miss counts one failed operation or check.
func (b *bench) miss(format string, args ...any) {
	b.failed++
	if len(b.misses) < 8 {
		b.misses = append(b.misses, fmt.Sprintf(format, args...))
	}
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: train-expr, train-snp, serve-narrow or serve-wide")
		seed      = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds   = flag.Int("seconds", 35, "seconds of measurement in the run")
		trace     = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		fracserve = flag.String("fracserve", "", "fracserve binary built from the tree under test (serve workloads)")
		work      = flag.String("work", ".bench_build/work", "directory for generated inputs, models and span files")
	)
	flag.Parse()
	res, err := run(*workload, *seed, *seconds, *trace, *fracserve, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(workload string, seed uint64, seconds, trace int, fracserve, work string) (*result, error) {
	var doc specDoc
	if err := json.Unmarshal(specJSON, &doc); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	spec, ok := doc.Workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return nil, fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	b := &bench{
		name:      workload,
		spec:      spec,
		seed:      seed,
		seconds:   time.Duration(seconds) * time.Second,
		fracserve: fracserve,
		metrics:   map[string]metric{},
	}
	if trace == 1 {
		b.spans = newSpanStore()
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, workload+"-")
	if err != nil {
		return nil, err
	}
	b.work = dir
	defer os.RemoveAll(dir)

	env := stamp()
	fmt.Printf("# %s seed=%d seconds=%d trace=%d %s\n", workload, seed, seconds, trace, env)
	switch {
	case spec.Kind == "train" && trace == 0:
		err = b.runTrain()
	case spec.Kind == "train":
		err = b.runTrainTraced()
	case spec.Kind == "serve" && trace == 0:
		err = b.runServe()
	case spec.Kind == "serve":
		err = b.runServeTraced()
	default:
		err = fmt.Errorf("workload %q has unknown kind %q", workload, spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	want := doc.EndToEnd
	if b.spans != nil {
		if err := b.reportTrace(doc, env, filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))); err != nil {
			return nil, err
		}
		want = doc.PerLayer
	}
	for name := range want {
		if _, ok := b.metrics[name]; !ok {
			return nil, fmt.Errorf("run did not produce metric %s", name)
		}
	}
	for name := range b.metrics {
		if _, ok := want[name]; !ok {
			return nil, fmt.Errorf("run produced %s, which spec.json does not list", name)
		}
	}
	for _, m := range b.misses {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", m)
	}
	if b.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	for name, m := range b.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	for _, name := range sortedKeys(b.metrics) {
		fmt.Printf("%-28s %14.6g %s\n", name, b.metrics[name].Value, b.metrics[name].Unit)
	}
	fmt.Printf("attempted=%d failed=%d\n", b.attempted, b.failed)
	return &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}

// stamp describes the machine and build the numbers come from.
func stamp() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, cpuModel())
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
