package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Distribution summarizes how a load metric is spread over the nodes of the
// network. The paper's load-balance figures plot sorted per-node load
// curves and compare how concentrated the load is; Distribution captures the
// statistics those plots convey.
type Distribution struct {
	// N is the number of nodes sampled (including zero-load nodes).
	N int
	// NonZero is the number of nodes that carried any load — the paper's
	// "network utilization": the fraction of nodes participating in query
	// processing.
	NonZero int
	// Total is the sum of all loads.
	Total float64
	// Mean is Total / N.
	Mean float64
	// Max is the largest per-node load.
	Max float64
	// Gini is the Gini coefficient of the load vector in [0, 1];
	// 0 is perfectly even, 1 is a single node carrying everything.
	Gini float64
	// CoV is the coefficient of variation (stddev / mean), 0 when Mean == 0.
	CoV float64
	// P50, P90, P99 are load percentiles over all N nodes.
	P50, P90, P99 float64
	// Top1Share and Top10Share are the fractions of Total carried by the
	// most-loaded 1% and 10% of nodes ("the most loaded nodes" of
	// Figure 5.15). They are 0 when Total == 0.
	Top1Share, Top10Share float64
}

// Summarize computes a Distribution over the given per-node loads. The input
// slice is not modified.
func Summarize(loads []float64) Distribution {
	d := Distribution{N: len(loads)}
	if len(loads) == 0 {
		return d
	}
	sorted := make([]float64, len(loads))
	copy(sorted, loads)
	sort.Float64s(sorted)

	var sumSq float64
	for _, v := range sorted {
		d.Total += v
		sumSq += v * v
		if v > 0 {
			d.NonZero++
		}
		if v > d.Max {
			d.Max = v
		}
	}
	n := float64(len(sorted))
	d.Mean = d.Total / n
	if d.Mean > 0 {
		variance := sumSq/n - d.Mean*d.Mean
		if variance < 0 {
			variance = 0
		}
		d.CoV = math.Sqrt(variance) / d.Mean
	}
	d.P50 = percentile(sorted, 0.50)
	d.P90 = percentile(sorted, 0.90)
	d.P99 = percentile(sorted, 0.99)

	if d.Total > 0 {
		// Gini via the sorted-sum formula:
		// G = (2*sum_i(i*x_i) - (n+1)*sum(x)) / (n*sum(x)), i starting at 1.
		var weighted float64
		for i, v := range sorted {
			weighted += float64(i+1) * v
		}
		d.Gini = (2*weighted - (n+1)*d.Total) / (n * d.Total)

		d.Top1Share = topShare(sorted, 0.01)
		d.Top10Share = topShare(sorted, 0.10)
	}
	return d
}

// SummarizeInt is Summarize for integer load counters.
func SummarizeInt(loads []int64) Distribution {
	f := make([]float64, len(loads))
	for i, v := range loads {
		f[i] = float64(v)
	}
	return Summarize(f)
}

// percentile returns the p-quantile (0 <= p <= 1) of an ascending slice
// using nearest-rank interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// topShare returns the fraction of the total carried by the top `frac` of
// the ascending-sorted load slice (at least one node).
func topShare(sorted []float64, frac float64) float64 {
	k := int(math.Ceil(frac * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	var top, total float64
	for i, v := range sorted {
		total += v
		if i >= len(sorted)-k {
			top += v
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// String renders the summary on one line for experiment tables.
func (d Distribution) String() string {
	return fmt.Sprintf("n=%d used=%d total=%.0f mean=%.2f max=%.0f gini=%.3f cov=%.2f top1%%=%.2f",
		d.N, d.NonZero, d.Total, d.Mean, d.Max, d.Gini, d.CoV, d.Top1Share)
}
