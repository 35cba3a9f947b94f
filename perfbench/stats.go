package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// schedule is the open-loop replay of closed-loop service times: job i is
// due at due[i] on a single FIFO server and starts at max(due, previous
// finish).
type schedule struct {
	start, finish []time.Duration
	backlogMax    int // most jobs due but not started when a job finishes
}

func openLoop(due, service []time.Duration) schedule {
	s := schedule{start: make([]time.Duration, len(due)), finish: make([]time.Duration, len(due))}
	var free time.Duration
	for i := range due {
		st := due[i]
		if free > st {
			st = free
		}
		s.start[i] = st
		free = st + service[i]
		s.finish[i] = free
	}
	// Backlog at each finish: later jobs already due but not yet started.
	j := 0
	for i := range due {
		if j <= i {
			j = i + 1
		}
		for j < len(due) && due[j] < s.finish[i] {
			j++
		}
		if n := j - i - 1; n > s.backlogMax {
			s.backlogMax = n
		}
	}
	return s
}
