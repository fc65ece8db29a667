// SNP: genotype anomaly detection, reproducing the paper's two SNP
// stories in miniature:
//
//  1. The autism-like null — no genotype signal separates the labeled
//     anomalies, so every variant hovers at AUC 0.5 (the data set serves
//     only as a timing yardstick).
//  2. The schizophrenia-like ancestry confound — cases come from a second
//     population whose differentiated, high-entropy SNP blocks entropy
//     filtering locks onto almost perfectly, while JL projection struggles
//     at small dimensions and improves as d grows (paper Fig. 3).
//
// Run with:
//
//	go run ./examples/snp
package main

import (
	"fmt"
	"log"

	"frac"
)

func main() {
	nullStory()
	confoundStory()
}

func nullStory() {
	profile, err := frac.ProfileByName("autism")
	if err != nil {
		log.Fatal(err)
	}
	pool, err := profile.Generate(32, 1)
	if err != nil {
		log.Fatal(err)
	}
	reps, err := frac.MakeReplicates(pool, 1, 2.0/3, frac.NewRNG(2))
	if err != nil {
		log.Fatal(err)
	}
	rep := reps[0]
	cfg := frac.Config{Seed: 5, Learners: frac.TreeLearnersDefault()}
	res, err := frac.Run(rep.Train, rep.Test, frac.FullTerms(rep.Train.NumFeatures()), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("autism-like null (%d ternary SNPs): full FRaC AUC = %.3f (expect ~0.5)\n",
		pool.NumFeatures(), frac.AUC(res.Scores, rep.Test.Anomalous))
}

func confoundStory() {
	profile, err := frac.ProfileByName("schizophrenia")
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := profile.GenerateSplit(64, 1)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := frac.FixedSplit(train, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nschizophrenia-like confound (%d SNPs; training normals and test cases\n", train.NumFeatures())
	fmt.Println("come from different populations):")

	cfg := frac.Config{Seed: 5, Learners: frac.TreeLearnersDefault()}
	src := frac.NewRNG(3)

	ent, kept, err := frac.RunFullFiltered(rep.Train, rep.Test, frac.EntropyFilter, 0.05, src.Stream("ent"), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  entropy filter (top 5%% = %d sites): AUC = %.3f (paper: ~1.0 — it finds ancestry, not disease)\n",
		len(kept), frac.AUC(ent.Scores, rep.Test.Anomalous))

	ens, err := frac.RunFilterEnsemble(rep.Train, rep.Test, frac.RandomFilter, 0.05,
		frac.EnsembleSpec{Members: 10}, src.Stream("ens"), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  random filter ensemble:              AUC = %.3f (paper: ~0.86)\n",
		frac.AUC(ens, rep.Test.Anomalous))

	fmt.Println("  JL dimension sweep (paper Fig. 3 — AUC rises with d):")
	for _, dim := range []int{16, 32, 64} {
		res, err := frac.RunJL(rep.Train, rep.Test,
			frac.JLSpec{Dim: dim},
			src.StreamN("jl", dim), cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    d=%3d: AUC = %.3f\n", dim, frac.AUC(res.Scores, rep.Test.Anomalous))
	}
}
