// Package stats provides the small statistical toolkit the experiment
// harness uses: Bernoulli estimation with Wilson confidence intervals and
// Chernoff-style repetition planning.
package stats

import (
	"fmt"
	"math"
)

// Estimate is an estimated Bernoulli probability with a confidence
// interval.
type Estimate struct {
	Successes int
	Trials    int
	Rate      float64
	Lo, Hi    float64 // 95% Wilson interval
}

// EstimateBernoulli summarizes successes/trials with a 95% Wilson interval.
func EstimateBernoulli(successes, trials int) Estimate {
	if trials <= 0 {
		return Estimate{}
	}
	lo, hi := WilsonInterval(successes, trials, 1.96)
	return Estimate{
		Successes: successes,
		Trials:    trials,
		Rate:      float64(successes) / float64(trials),
		Lo:        lo,
		Hi:        hi,
	}
}

// String renders the estimate as "0.42 [0.31, 0.54] (21/50)".
func (e Estimate) String() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f] (%d/%d)", e.Rate, e.Lo, e.Hi, e.Successes, e.Trials)
}

// WilsonInterval returns the Wilson score interval for a Bernoulli
// proportion at the given z-value (1.96 for 95%).
func WilsonInterval(successes, trials int, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	margin := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// ChernoffTrials returns the number of independent repetitions needed so
// that the empirical mean of a Bernoulli variable deviates from its
// expectation by more than eps with probability at most delta (two-sided
// Hoeffding bound): n ≥ ln(2/δ) / (2 ε²).
func ChernoffTrials(eps, delta float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 0
	}
	return int(math.Ceil(math.Log(2/delta) / (2 * eps * eps)))
}

// CertifyingTrials returns a trial count sufficient to separate the
// paper's completeness (> 2/3) and soundness (< 1/3) thresholds: enough
// repetitions that a protocol whose true acceptance probability is at
// least atLeast bounded away from the threshold yields a Wilson interval
// excluding it. Concretely it takes the Hoeffding count for estimating
// within margin at confidence 1-delta, so an observed rate of 1.0 (resp.
// 0.0) certifies p > 1 - 2·margin (resp. p < 2·margin).
func CertifyingTrials(margin, delta float64) int {
	return ChernoffTrials(margin, delta)
}

// DeriveSeed deterministically derives the seed of an independent random
// stream from a base seed and a stream index, using the splitmix64
// finalizer. Trial i of an experiment draws all randomness from
// DeriveSeed(seed, i), making per-trial results independent of worker
// scheduling: the harness can replay any trial in isolation.
func DeriveSeed(seed, stream int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xD1342543DE82EF95 + 0x2545F4914F6CDD1D
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MaxInt returns the maximum of xs (0 for an empty slice).
func MaxInt(xs []int) int {
	m := 0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs by linear
// interpolation between closest ranks, the same estimator as numpy's
// default. xs must be sorted ascending; an empty slice yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	// Interpolate as lo + Δ·frac, capped at xs[hi]: the weighted form
	// xs[lo]·(1−frac) + xs[hi]·frac can round above a run of equal
	// values, which puts p95 above p99 and the maximum.
	frac := rank - float64(lo)
	return min(xs[lo]+(xs[hi]-xs[lo])*frac, xs[hi])
}
