package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"time"
)

// stolen is the CPU time the hypervisor gave to other guests while a vCPU of
// this machine had work to run, summed over the vCPUs since boot: the steal
// column of /proc/stat's first line, in ticks of 10 ms. It is zero where the
// operating system does not report it.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// sample is one timed repetition: how long it took, and how much steal time
// passed meanwhile.
type sample struct {
	wall, stolen time.Duration
}

// timeSample times f, which reports its own duration.
func timeSample(f func() time.Duration) sample {
	before := stolen()
	wall := f()
	return sample{wall: wall, stolen: stolen() - before}
}

func walls(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.wall.Seconds()
	}
	return out
}

// theilSen is the median of the slopes between every two points, a line fit
// that a few wild points do not move; 0 when no two xs differ.
func theilSen(xs, ys []float64) float64 {
	var slopes []float64
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[j] != xs[i] {
				slopes = append(slopes, (ys[j]-ys[i])/(xs[j]-xs[i]))
			}
		}
	}
	return median(slopes)
}

// undisturbed is what the repetitions would have taken had no vCPU been kept
// waiting, in seconds. A repetition's wall time is its own time plus the part
// beta of the steal time that fell on its critical path (the rest delayed
// background work: the collector, an idle vCPU's bookkeeping). beta is fit to
// the run's own samples, wall against stolen, and held to [0, 1]; with no
// steal time the walls come back as they are.
func undisturbed(samples []sample) (seconds []float64, beta float64) {
	lost := make([]float64, len(samples))
	for i, s := range samples {
		lost[i] = s.stolen.Seconds()
	}
	beta = min(max(theilSen(lost, walls(samples)), 0), 1)
	seconds = make([]float64, len(samples))
	for i, s := range samples {
		seconds[i] = s.wall.Seconds() - beta*lost[i]
	}
	return seconds, beta
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), which
// is what the driver uses to judge spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrFrac is the distance between the first and third quartile as a share of
// the median: the spread measure the driver compares with a metric's bound.
func iqrFrac(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(float64(len(s))*p/100+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// windowOf maps a completion time to the index of its window; an index past
// the plan's windows is past the phase.
func windowOf(done, start time.Time, window time.Duration) int {
	return int(done.Sub(start) / window)
}

// shareAmong adds amount to the windows the interval [from, to) overlaps, in
// proportion to the overlap; the part past the last window is dropped.
func shareAmong(windows []window, amount float64, from, to, window time.Duration) {
	if to <= from {
		return
	}
	for w := int(from / window); w < len(windows) && time.Duration(w)*window < to; w++ {
		lo, hi := max(from, time.Duration(w)*window), min(to, time.Duration(w+1)*window)
		windows[w].work += amount * float64(hi-lo) / float64(to-from)
	}
}
