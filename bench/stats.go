//go:build linux

package main

import (
	"slices"
	"time"

	"ripki/internal/stats"
)

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics. It sorts a copy; an empty input gives 0, which a
// JSON line can carry and stats.Percentile's NaN cannot.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	return stats.Percentile(s, 100*q)
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// sample is one completed request of a load phase.
type sample struct {
	due time.Duration // scheduled send time, from the phase start
	lat time.Duration // completion minus due time
}

// windowedQuantile splits samples into windows of the given width by due
// time and returns the median over the windows of each window's
// q-quantile. The box this runs on loses a core for a second or two now
// and then; a median over windows keeps such a second from setting the
// run's number. Callers pick the width: a second for a tail percentile,
// so that every window has enough samples beyond it; a tenth of a second
// for the median, so that a periodic stall shorter than half its period
// (serve-churn's publisher holds a core for a third of every second)
// spoils a minority of windows instead of a part of every one.
func windowedQuantile(ss []sample, q float64, width time.Duration) float64 {
	byWindow := map[int][]float64{}
	for _, s := range ss {
		w := int(s.due / width)
		byWindow[w] = append(byWindow[w], us(s.lat))
	}
	var per []float64
	for _, vs := range byWindow {
		per = append(per, quantile(vs, q))
	}
	return median(per)
}

// windowedRate returns the median over the whole one-second windows of
// the phase of the requests sent in each and completed: requests per
// second, robust to a bad second like windowedQuantile.
func windowedRate(p *phase) float64 {
	whole := int(p.elapsed / time.Second)
	if whole == 0 {
		return p.achieved()
	}
	per := make([]float64, whole)
	for _, ss := range p.samples {
		for _, s := range ss {
			if w := int(s.due / time.Second); w < whole {
				per[w]++
			}
		}
	}
	return median(per)
}

// us renders a duration in microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
