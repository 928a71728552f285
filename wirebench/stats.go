package main

import (
	"fmt"
	"math"
	"sort"

	"nodesampling/internal/metrics"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 over fewer than 1000 samples is really a maximum.
const minBeyond = 10

// percentile is one nearest-rank percentile of a latency sample, with the
// sample count it was taken over and whether enough samples lie beyond it
// to report it at all.
type percentile struct {
	Value float64
	N     int
	OK    bool
}

// nearestRank returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the sample at
// or below it. It is reportable only when at least minBeyond samples lie
// strictly beyond its rank. xs is sorted in place.
func nearestRank(xs []float64, p float64) percentile {
	n := len(xs)
	if n == 0 {
		return percentile{}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return percentile{Value: xs[rank-1], N: n, OK: n-rank >= minBeyond}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// drawHistogram counts draws of σ′ or Sample and checks each against the
// generated population: an id the benchmark never offered is a correctness
// failure, not noise.
type drawHistogram struct {
	population map[uint64]struct{}
	hist       *metrics.Histogram
	foreign    uint64
}

func newDrawHistogram(population map[uint64]struct{}) *drawHistogram {
	return &drawHistogram{population: population, hist: metrics.NewHistogram()}
}

func (d *drawHistogram) add(id uint64) {
	if _, ok := d.population[id]; !ok {
		d.foreign++
		return
	}
	d.hist.Add(id)
}

// kl is the KL divergence of the counted draws from the uniform
// distribution over the whole population, in nats.
func (d *drawHistogram) kl() (float64, error) {
	return d.hist.KLvsUniform(len(d.population))
}

// memberCounts is one daemon's ingest accounting, read from its /metrics.
type memberCounts struct {
	Processed, Dropped uint64
}

// reconcile checks id conservation across a fleet (one member for a
// standalone daemon): every offered id was processed or dropped by exactly
// one member. A forwarded id is counted by the receiving member's pool
// only, so the sender's forwarded counter is not part of the sum.
func reconcile(offered uint64, members []memberCounts) error {
	var counted uint64
	for _, m := range members {
		counted += m.Processed + m.Dropped
	}
	if counted != offered {
		return fmt.Errorf("id conservation: offered %d, processed+dropped %d over %d member(s)", offered, counted, len(members))
	}
	return nil
}
