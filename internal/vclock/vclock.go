// Package vclock provides a deterministic virtual clock with timer
// scheduling.
//
// The IncProf reproduction executes applications in virtual time: every unit
// of application work advances a Clock by a modeled duration, and periodic
// activities (profile sampling, IncProf snapshot dumps, heartbeat interval
// flushes) are timers scheduled on the same Clock. This makes multi-minute
// "runs" deterministic and millisecond-fast while preserving the interval
// semantics the paper's analysis depends on.
//
// A Clock is owned by a single goroutine (one MPI rank in this codebase) and
// is not safe for concurrent use. Rank synchronization is performed by the
// owning goroutines themselves (see package mpi), which advance their own
// clocks to an agreed time.
package vclock

import (
	"container/heap"
	"fmt"
	"time"
)

// Conventional same-deadline priorities used across the reproduction: when a
// profiling-clock tick, a heartbeat interval flush, and an IncProf snapshot
// dump all land on the same virtual instant (t = k·1s), they must fire in
// that order so the dump observes a fully-accounted interval.
const (
	PrioritySampler = 0   // profiling clock ticks
	PriorityFlush   = 50  // heartbeat interval flushes
	PriorityDump    = 100 // IncProf snapshot dumps
)

// Time is a virtual timestamp: nanoseconds since the start of the run.
type Time int64

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) time.Duration { return time.Duration(t - earlier) }

// Seconds returns t as floating-point seconds since the start of the run.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Duration returns t as a duration since the start of the run.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the timestamp as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Timer is a handle to a scheduled callback. A Timer fires at most once;
// periodic behavior is built by rescheduling (see Ticker).
type Timer struct {
	when    Time
	pri     int    // lower fires first at equal deadlines
	seq     uint64 // final tie-break: schedule order
	index   int    // heap index, -1 when not queued
	fn      func(now Time)
	stopped bool
}

// When returns the deadline the timer is scheduled for.
func (t *Timer) When() Time { return t.when }

// Stop cancels the timer. It reports whether the timer was still pending.
// Stopping an already-fired or already-stopped timer is a no-op.
func (t *Timer) Stop() bool {
	if t.stopped || t.index < 0 {
		t.stopped = true
		return false
	}
	t.stopped = true
	return true
}

// Clock is a deterministic virtual clock. The zero value is ready to use and
// reads 0 (the start of the run).
type Clock struct {
	now    Time
	timers timerHeap
	seq    uint64
	firing bool
}

// New returns a Clock reading time zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// AtFunc schedules fn to run when the clock reaches t. Deadlines in the past
// (or at the current instant) fire on the next Advance or Fire call, not
// immediately. Callbacks run on the goroutine that advances the clock.
func (c *Clock) AtFunc(t Time, fn func(now Time)) *Timer {
	return c.AtFuncPriority(t, 0, fn)
}

// AtFuncPriority is AtFunc with an explicit priority: among timers sharing a
// deadline, lower priorities fire first (schedule order breaks remaining
// ties). Observers that must see an instant before state is dumped — e.g.
// the profiling clock versus the IncProf snapshot dump, both at t = k·1s —
// encode that ordering here rather than relying on scheduling accidents.
func (c *Clock) AtFuncPriority(t Time, pri int, fn func(now Time)) *Timer {
	if fn == nil {
		panic("vclock: AtFunc with nil callback")
	}
	c.seq++
	tm := &Timer{when: t, pri: pri, seq: c.seq, fn: fn, index: -1}
	heap.Push(&c.timers, tm)
	return tm
}

// AfterFunc schedules fn to run d from now. A non-positive d schedules the
// callback for the current instant; it fires on the next Advance or Fire.
func (c *Clock) AfterFunc(d time.Duration, fn func(now Time)) *Timer {
	return c.AtFunc(c.now.Add(d), fn)
}

// NextDeadline returns the earliest pending timer deadline. The second
// result is false when no timers are pending.
func (c *Clock) NextDeadline() (Time, bool) {
	c.dropStopped()
	if len(c.timers) == 0 {
		return 0, false
	}
	return c.timers[0].when, true
}

// dropStopped removes cancelled timers sitting at the heap root so that
// NextDeadline reflects a live deadline.
func (c *Clock) dropStopped() {
	for len(c.timers) > 0 && c.timers[0].stopped {
		heap.Pop(&c.timers)
	}
}

// Fire runs every timer whose deadline is at or before the current time, in
// deadline order (schedule order for equal deadlines). Timers scheduled by
// callbacks for the current instant fire within the same call.
func (c *Clock) Fire() {
	if c.firing {
		return // a callback advanced the clock; the outer Fire loop resumes
	}
	c.firing = true
	defer func() { c.firing = false }()
	for {
		c.dropStopped()
		if len(c.timers) == 0 || c.timers[0].when > c.now {
			return
		}
		tm := heap.Pop(&c.timers).(*Timer)
		tm.fn(c.now)
	}
}

// Advance moves the clock forward by d, firing due timers as their deadlines
// are reached. Each timer observes the clock at (or after) its own deadline:
// the clock steps to successive deadlines rather than jumping straight to
// now+d. Advance panics on negative d.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic("vclock: Advance with negative duration")
	}
	target := c.now.Add(d)
	for {
		c.dropStopped()
		if len(c.timers) == 0 || c.timers[0].when > target {
			break
		}
		next := c.timers[0].when
		if next > c.now {
			c.now = next
		}
		c.Fire()
	}
	if target > c.now {
		c.now = target
	}
}

// AdvanceTo moves the clock forward to t, firing due timers. It is a no-op
// if t is not after the current time.
func (c *Clock) AdvanceTo(t Time) {
	if t <= c.now {
		return
	}
	c.Advance(t.Sub(c.now))
}

// Step advances the clock by at most d, stopping early at the first pending
// timer deadline after the current time. Timers already due fire before the
// clock moves; Step then fires the timers due at the new time and returns
// the duration actually advanced. Step is the primitive the execution runtime
// uses to attribute work to the running function in pieces that respect
// timer boundaries (profile samples, snapshot dumps).
func (c *Clock) Step(d time.Duration) time.Duration {
	return c.StepFunc(d, nil)
}

// StepFunc is Step with a hook: before is invoked after the clock has moved
// but before the timers due at the new instant fire. The execution runtime
// uses it to deliver work-attribution events ahead of same-instant timer
// callbacks (a snapshot dump at t=1s must observe all work up to 1s).
func (c *Clock) StepFunc(d time.Duration, before func(step time.Duration, now Time)) time.Duration {
	if d < 0 {
		panic("vclock: Step with negative duration")
	}
	// Timers scheduled for the current instant since the last Fire sit at
	// the heap root; fire them before the clock moves so they observe their
	// own deadline and the root becomes the first deadline after now.
	c.Fire()
	target := c.now.Add(d)
	if next, ok := c.nextDeadlineAfter(c.now); ok && next < target {
		target = next
	}
	step := target.Sub(c.now)
	c.now = target
	if before != nil {
		before(step, c.now)
	}
	c.Fire()
	return step
}

// nextDeadlineAfter returns the earliest live deadline strictly after t.
// Outside a callback Step has already fired everything due, so this is the
// heap root; inside one (Fire is not re-entrant) due timers may still sit
// above the answer and the heap is scanned.
func (c *Clock) nextDeadlineAfter(t Time) (Time, bool) {
	c.dropStopped()
	if len(c.timers) == 0 {
		return 0, false
	}
	if c.timers[0].when > t {
		return c.timers[0].when, true
	}
	var next Time
	found := false
	for _, tm := range c.timers {
		if !tm.stopped && tm.when > t && (!found || tm.when < next) {
			next, found = tm.when, true
		}
	}
	return next, found
}

// PendingTimers reports the number of live (unstopped, unfired) timers.
func (c *Clock) PendingTimers() int {
	n := 0
	for _, t := range c.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}

// Ticker repeatedly invokes a callback at a fixed virtual period.
type Ticker struct {
	clock  *Clock
	period time.Duration
	pri    int
	fn     func(now Time)
	timer  *Timer
	done   bool
}

// NewTicker schedules fn to run every period at priority 0, with the first
// firing one period from now. It panics if period is not positive.
func (c *Clock) NewTicker(period time.Duration, fn func(now Time)) *Ticker {
	return c.NewTickerPriority(period, 0, fn)
}

// NewTickerPriority is NewTicker with an explicit same-deadline priority
// (see AtFuncPriority).
func (c *Clock) NewTickerPriority(period time.Duration, pri int, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("vclock: NewTicker with non-positive period")
	}
	tk := &Ticker{clock: c, period: period, pri: pri, fn: fn}
	tk.schedule()
	return tk
}

func (tk *Ticker) schedule() {
	tk.timer = tk.clock.AtFuncPriority(tk.clock.Now().Add(tk.period), tk.pri, func(now Time) {
		if tk.done {
			return
		}
		tk.fn(now)
		if !tk.done {
			tk.schedule()
		}
	})
}

// Stop cancels the ticker; no further callbacks run.
func (tk *Ticker) Stop() {
	tk.done = true
	if tk.timer != nil {
		tk.timer.Stop()
	}
}

// Period returns the ticker's firing period.
func (tk *Ticker) Period() time.Duration { return tk.period }

// timerHeap is a min-heap on (when, seq).
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
