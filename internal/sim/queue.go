package sim

import (
	"container/heap"
	"time"
)

// Event classes order simultaneous events into the pipeline's causal
// sequence: scenario mutations happen first, then the cache flushes the
// new VRP state, then relying parties refresh, then the probe samples.
// Within a class, scheduling order breaks ties — so a run is a pure
// function of the schedule, never of map iteration or goroutine timing.
const (
	classScenario = iota
	classFlush
	classRefresh
	classProbe
)

// event is one scheduled action.
type event struct {
	at    time.Time
	class int
	seq   uint64
	fn    func()
}

// eventHeap is a min-heap over (at, class, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	if h[i].class != h[j].class {
		return h[i].class < h[j].class
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Queue is the simulation's priority event queue. It is not safe for
// concurrent use; the engine owns it on the simulation goroutine.
type Queue struct {
	h   eventHeap
	seq uint64
}

// NewQueue creates an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// At schedules fn at the given instant and class.
func (q *Queue) At(at time.Time, class int, fn func()) {
	q.seq++
	heap.Push(&q.h, &event{at: at, class: class, seq: q.seq, fn: fn})
}

// RunDue pops and runs every event due at or before now, in (time,
// class, sequence) order, and returns how many ran. Events may schedule
// further events, including at the current instant; those run in the
// same call.
func (q *Queue) RunDue(now time.Time) int {
	ran := 0
	for len(q.h) > 0 && !q.h[0].at.After(now) {
		e := heap.Pop(&q.h).(*event)
		e.fn()
		ran++
	}
	return ran
}
