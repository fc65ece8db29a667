package obs

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"
)

// DatasetInfo records the shape of the data a run consumed, so a metrics
// file is interpretable without the inputs at hand.
type DatasetInfo struct {
	Name       string `json:"name"`
	Features   int    `json:"features"`
	Samples    int    `json:"samples,omitempty"`
	TrainRows  int    `json:"train_rows,omitempty"`
	TestRows   int    `json:"test_rows,omitempty"`
	Replicates int    `json:"replicates,omitempty"`
}

// Manifest identifies a run completely: what was run, on what, with which
// configuration, by which binary, on what machine shape. It is embedded in
// run_metrics.json and BENCH_results.json so any two result files can be
// compared knowing exactly what produced them.
type Manifest struct {
	Tool       string       `json:"tool"`
	Variant    string       `json:"variant,omitempty"`
	Seed       uint64       `json:"seed"`
	ConfigHash string       `json:"config_hash,omitempty"`
	Dataset    *DatasetInfo `json:"dataset,omitempty"`
	// TermSampleEvery is the per-term span sampling period the run used
	// (-obs-term-sample); sampled span counts undercount real events by this
	// factor, so consumers need it to rescale.
	TermSampleEvery int `json:"obs_term_sample,omitempty"`

	Build      Build  `json:"build"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	StartedUTC string `json:"started_utc"`
}

// NewManifest fills the environment-derived fields; the caller sets the
// run-derived ones (Variant, Seed, ConfigHash, Dataset).
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Tool:       tool,
		Build:      BuildInfo(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		StartedUTC: time.Now().UTC().Format(time.RFC3339),
	}
}

// ConfigHash digests key=value configuration pairs into a short stable
// identifier: pairs are sorted before hashing, so flag registration order
// cannot change the hash, and two runs share a hash iff they share a
// configuration.
func ConfigHash(kv map[string]string) string {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(kv[k]))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// FlagConfigHash renders a flag-style configuration into a ConfigHash; the
// variadic pairs alternate key, value (odd trailing keys are dropped).
func FlagConfigHash(pairs ...string) string {
	kv := make(map[string]string, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kv[pairs[i]] = pairs[i+1]
	}
	return ConfigHash(kv)
}

// FormatBytes renders a byte count with a binary-prefix unit (progress line
// and -version output; resource.FormatBytes is the tracker-side twin, kept
// separate so obs stays dependency-free).
func FormatBytes(b int64) string {
	const kib = 1024
	switch {
	case b >= kib*kib*kib:
		return fmt.Sprintf("%.2fGiB", float64(b)/(kib*kib*kib))
	case b >= kib*kib:
		return fmt.Sprintf("%.1fMiB", float64(b)/(kib*kib))
	case b >= kib:
		return fmt.Sprintf("%.1fKiB", float64(b)/kib)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// formatDuration renders a duration compactly for the progress line.
func formatDuration(d time.Duration) string {
	switch {
	case d <= 0:
		return "0s"
	case d < time.Second:
		return d.Round(time.Millisecond).String()
	case d < time.Minute:
		return d.Round(100 * time.Millisecond).String()
	default:
		return d.Round(time.Second).String()
	}
}
