package stats

import (
	"fmt"
	"sort"
)

// AUC returns the area under the ROC curve for anomaly scores, where labels
// mark anomalies (true) vs. controls (false) and higher scores are more
// anomalous — the evaluation used throughout the FRaC papers (ref 9).
//
// It is computed via the rank statistic (Mann–Whitney U) with midrank tie
// handling: AUC = (Σ ranks(anomalies) - n_a(n_a+1)/2) / (n_a * n_c).
// It panics if either class is empty, since AUC is undefined there.
func AUC(scores []float64, anomalous []bool) float64 {
	if len(scores) != len(anomalous) {
		panic(fmt.Sprintf("stats: AUC length mismatch %d vs %d", len(scores), len(anomalous)))
	}
	nA, nC := 0, 0
	for _, a := range anomalous {
		if a {
			nA++
		} else {
			nC++
		}
	}
	if nA == 0 || nC == 0 {
		panic("stats: AUC needs at least one anomaly and one control")
	}
	ranks := MidRanks(scores)
	var rankSum float64
	for i, a := range anomalous {
		if a {
			rankSum += ranks[i]
		}
	}
	u := rankSum - float64(nA)*float64(nA+1)/2
	return u / (float64(nA) * float64(nC))
}

// MidRanks returns 1-based ranks of xs with ties assigned the average
// (mid) rank of their group.
func MidRanks(xs []float64) []float64 {
	n := len(xs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[order[j+1]] == xs[order[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1 // average of 1-based ranks i+1..j+1
		for k := i; k <= j; k++ {
			ranks[order[k]] = mid
		}
		i = j + 1
	}
	return ranks
}
