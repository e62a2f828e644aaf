package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample with at least p% of the sample at or
// below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is ⌈p·n/100⌉ clamped to [1, n]. The product is nudged
// down by a part in 10¹² first: 99.9·10000/100 is 9990.000000000002 in
// floating point, and must still rank 9990.
func nearestRank(n int, p float64) int {
	x := p * float64(n) / 100
	rank := int(math.Ceil(x - x*1e-12))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// minBeyond is how many samples must lie above a percentile's rank for
// the percentile to be reported: with fewer, one slow sample moves it.
const minBeyond = 10

// supported reports whether a sample of n supports the p-th percentile:
// at least minBeyond samples lie beyond its nearest rank.
func supported(n int, p float64) bool {
	return n > 0 && n-nearestRank(n, p) >= minBeyond
}

// sortedCopy returns the sample sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the mean of the two middle samples for an even count — the
// convention of Python's statistics.median, which the driver uses.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timed is one completed operation: when it ended, relative to the
// start of its measured phase, and how long it took.
type timed struct {
	end time.Duration
	lat time.Duration
}

// micros converts the latencies of a sample to sorted microseconds.
func micros(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = float64(t.lat) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// windowedPercentile splits a phase of the given length into equal
// windows, takes the p-th percentile of the operations that ended in
// each, and returns the median over the windows that support p. One
// window's stall (a GC cycle, a noisy neighbour) then moves the tail
// figure by at most one rank among the windows instead of owning it.
// When no single window supports p the whole phase is used.
func windowedPercentile(ts []timed, phase time.Duration, windows int, p float64) float64 {
	if windows < 1 {
		windows = 1
	}
	per := make([][]timed, windows)
	for _, t := range ts {
		w := int(int64(t.end) * int64(windows) / int64(phase))
		if w < 0 {
			w = 0
		}
		if w >= windows {
			w = windows - 1
		}
		per[w] = append(per[w], t)
	}
	var tails []float64
	for _, w := range per {
		if supported(len(w), p) {
			tails = append(tails, percentile(micros(w), p))
		}
	}
	if len(tails) == 0 {
		return percentile(micros(ts), p)
	}
	return median(tails)
}

// pacedStart applies the due-time rule of a paced (open-loop) stream on
// one connection. due is when the request was scheduled, prevDone when
// the connection finished its previous request, and sent when the
// request actually left. If the connection was still busy at the due
// time the server made the request late, so its latency counts from
// due; otherwise the delay between due and sent is the generator's own
// (a late timer), which is reported as lateness and kept out of the
// latency.
func pacedStart(due, prevDone, sent time.Time) (from time.Time, timerLate time.Duration) {
	if prevDone.After(due) {
		return due, 0
	}
	if sent.After(due) {
		return sent, sent.Sub(due)
	}
	return sent, 0
}
