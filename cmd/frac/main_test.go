package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"frac"
)

// realDataset builds n samples of f correlated real features.
func realDataset(name string, n, f int) *frac.Dataset {
	schema := make(frac.Schema, f)
	for j := range schema {
		schema[j] = frac.Feature{Name: fmt.Sprintf("g%d", j), Kind: frac.Real}
	}
	d := frac.NewDataset(name, schema, n)
	src := frac.NewRNG(uint64(n*100 + f))
	for i := 0; i < n; i++ {
		base := src.Normal(0, 1)
		s := d.Sample(i)
		for j := range s {
			s[j] = base + src.Normal(0, 0.5)
		}
	}
	return d
}

// TestLoadAndScoreRejectsWidthMismatch: scoring a saved model against a test
// set narrower or wider than its schema is an error naming the feature
// counts — not an index-out-of-range panic (narrower) or NS values computed
// from the wrong columns (wider).
func TestLoadAndScoreRejectsWidthMismatch(t *testing.T) {
	dir := t.TempDir()
	const f = 4
	model, err := frac.Train(realDataset("train", 12, f), frac.FullTerms(f), frac.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "m.frac")
	if err := writeFileAtomic(modelPath, func(w io.Writer) error { return frac.SaveModel(w, model) }); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{f - 1, f, f + 2} {
		testPath := filepath.Join(dir, fmt.Sprintf("test%d.tsv", width))
		if err := frac.WriteDatasetFile(testPath, realDataset("test", 3, width)); err != nil {
			t.Fatal(err)
		}
		err := loadAndScore(modelPath, testPath, options{})
		switch {
		case width == f && err != nil:
			t.Errorf("matching width: %v", err)
		case width != f && (err == nil || !strings.Contains(err.Error(), "features")):
			t.Errorf("width %d against a %d-feature model: got %v, want a feature-count error", width, f, err)
		}
	}
}

// TestWriteFileAtomicKeepsOldArtifactOnError: a write that fails part way
// leaves the existing artifact byte-identical and no temp file behind; a
// write that succeeds replaces it whole.
func TestWriteFileAtomicKeepsOldArtifactOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.frac")
	old := []byte("previous model bytes")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	onlyArtifact := func() {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "m.frac" {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Errorf("directory holds %v, want only m.frac", names)
		}
	}

	boom := errors.New("write failed")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial new model")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeFileAtomic = %v, want the callback's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Errorf("artifact after failed write = %q (%v), want %q", got, err, old)
	}
	onlyArtifact()

	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new model"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new model" {
		t.Errorf("artifact after successful write = %q (%v), want %q", got, err, "new model")
	}
	onlyArtifact()
}
