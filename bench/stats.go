package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even
// counts); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tailCandidates are the percentiles tail considers, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tail reports the highest candidate percentile that still has at least
// ten samples beyond it, and its value (nearest rank). With too few
// samples for any candidate it degrades to the median (pct 50): a p99
// read off 40 samples is one outlier, not a percentile.
func tail(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailCandidates {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 1-based nearest rank; the epsilon absorbs 99.9 not being a binary fraction
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 50, median(s)
}

// minBlockOps is how many operations a block needs before its rate means
// anything: a block of n operations resolves the rate to 1/n at best.
const minBlockOps = 100

// blockRate splits a measured window of length elapsed into blocks equal
// parts, counts the operations that completed in each, and returns the
// median over blocks of the per-block completion rate (1/s). One slow
// block — a GC cycle, a noisy neighbour — then does not move the number.
// Windows with fewer than blocks*minBlockOps operations are one block.
func blockRate(ends []float64, elapsed float64, blocks int) float64 {
	if len(ends) < blocks*minBlockOps {
		return float64(len(ends)) / elapsed
	}
	width := elapsed / float64(blocks)
	rates := make([]float64, blocks)
	for _, end := range ends {
		b := int(end / width)
		if b >= blocks {
			b = blocks - 1
		}
		rates[b] += 1 / width
	}
	return median(rates)
}

// classMedian is the median over operation classes of each class's
// median latency: the median latency of an operation drawn evenly from
// the workload's distinct operations. Where every operation is its own
// class it is the plain median. Where a window repeats a few unequal
// classes (18 experiments, 20 sweep batches) the plain median depends on
// which of them the window happened to fit in once more than the others;
// this does not.
func classMedian(class []int, latMs []float64) float64 {
	byClass := map[int][]float64{}
	for i, c := range class {
		byClass[c] = append(byClass[c], latMs[i])
	}
	medians := make([]float64, 0, len(byClass))
	for _, lats := range byClass {
		medians = append(medians, median(lats))
	}
	return median(medians)
}
