package main

import (
	"math"
	"time"

	"dynatune/internal/metrics"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 read off 200 samples is two requests, not a tail.
const minBeyond = 10

// supported reports whether n samples carry the q-quantile with at least
// minBeyond samples beyond it.
func supported(n int, q float64) bool {
	// The epsilon absorbs products like 100·0.9 = 90.00000000000001.
	return n-int(math.Ceil(float64(n)*q-1e-9)) >= minBeyond
}

// quantileOrZero is the q-quantile of sorted, or 0 when the sample is too
// small to support it (the report prints "unsupported" beside it).
func quantileOrZero(sorted []float64, q float64) float64 {
	if !supported(len(sorted), q) {
		return 0
	}
	return metrics.QuantileSorted(sorted, q)
}

// slaFrac is the share of attempted requests answered OK within limit.
// okLats holds the latencies of the successful ones only, so a request
// that failed, was refused or never completed counts as a miss.
func slaFrac(okLats []float64, attempted int, limit float64) float64 {
	if attempted == 0 {
		return 0
	}
	within := 0
	for _, l := range okLats {
		if l <= limit {
			within++
		}
	}
	return float64(within) / float64(attempted)
}

func median(xs []float64) float64 { return metrics.Quantile(xs, 0.5) }

// timedSamples calls one repeatedly until budget is spent, and at least
// atLeast times, collecting what it returns; an error aborts.
func timedSamples(budget time.Duration, atLeast int, one func() (float64, error)) ([]float64, error) {
	var out []float64
	for deadline := time.Now().Add(budget); len(out) < atLeast || time.Now().Before(deadline); {
		x, err := one()
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latSummary is the latency half of a report.
type latSummary struct {
	n                   int
	p50, p90, p99, p999 float64
}

func summarize(okLats []float64) latSummary {
	s := metrics.SortedCopy(okLats)
	return latSummary{n: len(s),
		p50: quantileOrZero(s, 0.5), p90: quantileOrZero(s, 0.9),
		p99: quantileOrZero(s, 0.99), p999: quantileOrZero(s, 0.999)}
}
