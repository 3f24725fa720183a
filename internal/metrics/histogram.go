package metrics

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/sim"
)

// Histogram is a log₂-bucketed histogram of durations: bucket i counts
// samples in [2^i, 2^(i+1)) nanoseconds. It records lock wait times and
// similar long-tailed quantities without per-sample storage.
type Histogram struct {
	Name    string
	buckets [64]uint64
	count   uint64
	sum     sim.Time
	max     sim.Time
}

// NewHistogram returns an empty named histogram.
func NewHistogram(name string) *Histogram { return &Histogram{Name: name} }

// Record adds one sample (negative samples count as zero).
func (h *Histogram) Record(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// bucketOf maps a duration to its log₂ bucket (0 for 0 and 1ns).
func bucketOf(d sim.Time) int {
	if d <= 1 {
		return 0
	}
	return bits.Len64(uint64(d)) - 1
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Max reports the largest sample.
func (h *Histogram) Max() sim.Time { return h.max }

// Mean reports the average sample (0 when empty).
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Quantile returns an upper bound of the q-quantile (0 < q ≤ 1): the top
// of the bucket containing it, saturated at Max so the bound is both
// tight and overflow-free for samples in the highest buckets. Returns 0
// when empty.
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.count))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			if i >= 62 { // 1<<63 overflows sim.Time
				return h.max
			}
			top := sim.Time(1) << uint(i+1)
			if top > h.max {
				return h.max
			}
			return top
		}
	}
	return h.max
}

// P50 returns the median upper bound.
func (h *Histogram) P50() sim.Time { return h.Quantile(0.50) }

// P99 returns the 99th-percentile upper bound.
func (h *Histogram) P99() sim.Time { return h.Quantile(0.99) }

// P999 returns the 99.9th-percentile upper bound.
func (h *Histogram) P999() sim.Time { return h.Quantile(0.999) }

// Summary renders the one-line digest the profiler's histogram exporter
// prints: sample count, mean, tail quantiles, and max. All quantities are
// simulated times, so the string is byte-reproducible for a fixed seed.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%-8d mean=%-12s p50=%-12s p99=%-12s p999=%-12s max=%s",
		h.count, h.Mean(), h.P50(), h.P99(), h.P999(), h.max)
}

// String renders the non-empty buckets with proportional bars.
func (h *Histogram) String() string {
	var sb strings.Builder
	if h.Name != "" {
		fmt.Fprintf(&sb, "%s (n=%d, mean=%s, max=%s)\n", h.Name, h.count, h.Mean(), h.max)
	}
	var peak uint64
	for _, c := range h.buckets {
		if c > peak {
			peak = c
		}
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo := sim.Time(0)
		if i > 0 {
			lo = sim.Time(1) << uint(i)
		}
		bar := int(c * 40 / peak)
		fmt.Fprintf(&sb, "  ≥%-10s %8d %s\n", lo, c, strings.Repeat("█", bar))
	}
	return sb.String()
}
