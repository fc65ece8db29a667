package stats

import "math"

// ShannonEntropy returns the plug-in entropy (nats) of a discrete feature
// whose observed values are labels in [0, k). Frequencies are estimated from
// the sample as in paper §II.A: H = Σ -pr(v) log pr(v).
func ShannonEntropy(labels []int, k int) float64 {
	if len(labels) == 0 || k <= 0 {
		return 0
	}
	counts := make([]int, k)
	for _, v := range labels {
		if v >= 0 && v < k {
			counts[v]++
		}
	}
	return EntropyFromCounts(counts)
}

// EntropyFromCounts returns the plug-in Shannon entropy (nats) of the
// empirical distribution described by counts.
func EntropyFromCounts(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log(p)
	}
	return h
}

// GaussianDifferentialEntropy returns the differential entropy of a Gaussian
// fit to xs — the cheap continuous-entropy estimate used for NS
// normalization when KDE precision is not needed.
func GaussianDifferentialEntropy(xs []float64) float64 {
	return FitGaussian(xs).Entropy()
}
