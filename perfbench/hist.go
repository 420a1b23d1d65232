package main

import (
	"math"
	"math/bits"
	"time"
)

// subBits sets the histogram's resolution: every power-of-two range of
// nanoseconds is split into 2^subBits linear buckets, so a bucket is at
// most 1/256 of its value wide.
const subBits = 8

// hist is a log-bucketed latency histogram in the style of HdrHistogram:
// constant memory, constant-time record, bounded relative error, and
// exact merging. It is not safe for concurrent use; each load worker owns
// one and the runner merges them.
type hist struct {
	counts [64 << subBits]int64
	n      int64
	sum    float64
}

// bucketOf maps a duration in nanoseconds to its bucket index.
func bucketOf(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	v := uint64(ns)
	exp := bits.Len64(v) - 1
	if exp < subBits {
		return int(v)
	}
	shift := exp - subBits
	sub := (v >> shift) & (1<<subBits - 1)
	return (shift+1)<<subBits | int(sub)
}

// bucketRange returns the [lo, hi) nanosecond range of bucket b.
func bucketRange(b int) (lo, hi float64) {
	shift := b >> subBits
	if shift == 0 {
		return float64(b), float64(b + 1)
	}
	sub := uint64(b & (1<<subBits - 1))
	base := (uint64(1)<<subBits | sub) << (shift - 1)
	return float64(base), float64(base + 1<<(shift-1))
}

func (h *hist) record(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
	h.sum += float64(d)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in microseconds, interpolated linearly
// inside its bucket by rank, and whether at least minTail samples lie
// beyond it (the reporting rule: a percentile is only printed when ten
// samples back it from above).
func (h *hist) quantile(q float64, minTail int64) (float64, bool) {
	if h.n == 0 {
		return 0, false
	}
	rank := q * float64(h.n)
	if float64(h.n)-math.Ceil(rank) < float64(minTail) {
		return 0, false
	}
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketRange(b)
			frac := (rank - seen) / float64(c)
			return (lo + frac*(hi-lo)) / 1e3, true
		}
		seen += float64(c)
	}
	lo, hi := bucketRange(len(h.counts) - 1)
	return (lo + hi) / 2e3, true
}

// meanUS is the arithmetic mean in microseconds.
func (h *hist) meanUS() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n) / 1e3
}
