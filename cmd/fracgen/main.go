// Command fracgen writes the synthetic compendium (or one named profile) to
// disk as TSV data sets.
//
// Usage:
//
//	fracgen -out data/ -scale 16 [-profile biomarkers] [-seed 1]
//
// Replicated profiles produce a single labeled pool file (use frac's
// replicate machinery, or cmd/frac's -replicates flag, to split); the
// confounded schizophrenia profile produces separate -train and -test
// files. Telemetry flags (-progress, -metrics-out, -journal-out,
// -trace-events-out, -debug-addr, -obs-term-sample, -pprof-cpu, -pprof-heap,
// -trace, -version) match the frac command; generation is recorded as the
// load phase, TSV encoding as bytes decoded.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"frac/internal/dataset"
	"frac/internal/obs"
	"frac/internal/obs/httpserve"
	"frac/internal/synth"
)

func main() {
	out := flag.String("out", ".", "output directory")
	scale := flag.Int("scale", 16, "divide the paper's feature counts by this factor")
	profile := flag.String("profile", "", "generate only this profile (default: all)")
	seed := flag.Uint64("seed", 1, "root random seed")
	front := httpserve.Command{Tool: "fracgen"}
	front.Parse()
	// Interrupt (^C) or SIGTERM stops between profiles, so no TSV file is
	// left half-written by a mid-stream kill of the generation loop.
	front.Run(*profile, *seed, func(ctx context.Context, sess *obs.Session) error {
		return run(ctx, *out, *scale, *profile, *seed, sess.Rec)
	})
}

// run writes every profile, or only the one named only, at 1:scale to the
// directory out. A scale below 1 or an unknown profile is an error, before
// anything is written.
func run(ctx context.Context, out string, scale int, only string, seed uint64, rec *obs.Recorder) error {
	if scale < 1 {
		return fmt.Errorf("-scale %d: want at least 1", scale)
	}
	if only != "" {
		if _, err := synth.ProfileByName(only); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for _, p := range synth.Compendium() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if only != "" && p.Name != only {
			continue
		}
		if err := writeProfile(out, p, scale, seed, rec); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return nil
}

// writeDataset writes d to path and counts the encoded bytes.
func writeDataset(path string, d *dataset.Dataset, rec *obs.Recorder) error {
	if err := dataset.WriteFile(path, d); err != nil {
		return err
	}
	if info, err := os.Stat(path); err == nil {
		rec.Add(obs.CounterBytesDecoded, info.Size())
	}
	return nil
}

func writeProfile(out string, p synth.Profile, scale int, seed uint64, rec *obs.Recorder) error {
	if p.Confounded {
		span := rec.Start(obs.PhaseLoad)
		train, test, err := p.GenerateSplit(scale, seed)
		span.End()
		if err != nil {
			return err
		}
		if err := writeDataset(filepath.Join(out, p.Name+"-train.tsv"), train, rec); err != nil {
			return err
		}
		if err := writeDataset(filepath.Join(out, p.Name+"-test.tsv"), test, rec); err != nil {
			return err
		}
		fmt.Printf("%s: %d features, train %d / test %d samples -> %s-{train,test}.tsv\n",
			p.Name, train.NumFeatures(), train.NumSamples(), test.NumSamples(), p.Name)
		return nil
	}
	span := rec.Start(obs.PhaseLoad)
	d, err := p.Generate(scale, seed)
	span.End()
	if err != nil {
		return err
	}
	n, a := d.CountLabels()
	if err := writeDataset(filepath.Join(out, p.Name+".tsv"), d, rec); err != nil {
		return err
	}
	fmt.Printf("%s: %d features, %d normal + %d anomalous samples -> %s.tsv\n",
		p.Name, d.NumFeatures(), n, a, p.Name)
	return nil
}
