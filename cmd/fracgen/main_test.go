package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadFlagValues: fracgen divides the paper's feature counts by
// -scale, so a scale below 1 is an error naming the flag and its range,
// and so is a -profile no profile has; both are returned before the
// output directory is made or anything is written. A scale of 1 or more
// writes the profile.
func TestRejectsBadFlagValues(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		scale   int
		profile string
		want    []string
	}{
		{0, "breast.basal", []string{"-scale 0", "at least 1"}},
		{-3, "breast.basal", []string{"-scale -3", "at least 1"}},
		{64, "breast", []string{`"breast"`}},
	} {
		out := filepath.Join(t.TempDir(), "data")
		err := run(ctx, out, c.scale, c.profile, 1, nil)
		for _, w := range c.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("-scale %d -profile %s: err = %v, want it to name %s", c.scale, c.profile, err, w)
			}
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-scale %d -profile %s: the output directory exists (stat: %v)", c.scale, c.profile, err)
		}
	}
	out := t.TempDir()
	if err := run(ctx, out, 512, "breast.basal", 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "breast.basal.tsv")); err != nil {
		t.Errorf("-scale 512: %v", err)
	}
}
