package main

import (
	"errors"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/pravega-go/pravega/pkg/pravega"
)

// The measured interval is cut into windows of windowLen. Every load
// goroutine files what it observes under the window that is current when it
// observes it; a metric is computed per window and reported as the median
// over windows, so one checkpoint stall or GC pause moves one window, not
// the result. Window 0 is not measured: warm-up and the drain after the
// interval land there — those events are still sent, acknowledged and
// verified. A traced run records spans in every second window, so the cost
// of recording shows as the difference between two halves of the same run.
const (
	windowLen = time.Second
	// ackTimeout is how long after the end of sending an event may stay
	// unacknowledged (or an acknowledged event unread) before it counts as
	// failed.
	ackTimeout = 10 * time.Second
	// Latency and call-duration sampling on the closed-loop path, where
	// events arrive at several hundred thousand per second.
	closedLatencyEvery = 16
	callSpanEvery      = 64
)

// phase is the clock shared by the load goroutines of one measured interval.
type phase struct {
	window  atomic.Int32 // current window; 0 = not measured
	stopped atomic.Bool
	traced  []bool          // per window: spans recorded (index 0 unused)
	spent   []time.Duration // per window: how long it lasted
}

// newPhase lays out the windows of an interval of the given length.
func newPhase(measure time.Duration, traced bool) *phase {
	n := int((measure + windowLen - 1) / windowLen)
	p := &phase{traced: make([]bool, n+1), spent: make([]time.Duration, n+1)}
	for w := 2; traced && w <= n; w += 2 {
		p.traced[w] = true
	}
	return p
}

// windows is the number of measured windows.
func (p *phase) windows() int { return len(p.spent) - 1 }

// tracing reports whether spans are recorded right now.
func (p *phase) tracing() bool { return p.traced[p.window.Load()] }

// run drives the interval: warm-up, then one window after another, then
// stop. A close of early ends it before its time. edge is called at every
// window boundary — before the first window, between windows, after the
// last — for the CPU readings and scrapes taken there.
func (p *phase) run(warm time.Duration, early <-chan struct{}, edge func()) {
	time.Sleep(warm)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	edge()
	for w := 1; w <= p.windows(); w++ {
		p.window.Store(int32(w))
		t0 := time.Now()
		timer.Reset(windowLen)
		ended := false
		select {
		case <-timer.C:
		case <-early:
			ended = true
		}
		p.window.Store(0)
		p.spent[w] = time.Since(t0)
		edge()
		if ended {
			break
		}
	}
	p.stopped.Store(true)
}

type writeWindow struct {
	acked, bytes int64
	latNS        []int64 // intended send instant to acknowledgement
}

// writeStats is what one writer observed. sent and lagNS belong to the
// sending goroutine, the rest to whichever goroutine collects acks; they
// are read only after both have returned.
type writeStats struct {
	sent, acked, failed int64
	win                 []writeWindow // per window of the phase
	lagNS               []int64       // open loop: how late each send fired
}

func newWriteStats(ph *phase) *writeStats {
	return &writeStats{win: make([]writeWindow, ph.windows()+1)}
}

type pending struct {
	f      *pravega.WriteFuture
	sentNS int64
}

func (st *writeStats) ack(p pending, now int64, window int32, size, every int) {
	if p.f.Err() != nil {
		st.failed++
		return
	}
	st.acked++
	w := &st.win[window]
	w.acked++
	w.bytes += int64(size)
	if window != 0 && st.acked%int64(every) == 0 {
		w.latNS = append(w.latNS, now-p.sentNS)
	}
}

func isDone(f *pravega.WriteFuture) bool {
	select {
	case <-f.Done():
		return true
	default:
		return false
	}
}

// await blocks until the future resolves or d passes.
func await(f *pravega.WriteFuture, timer *time.Timer, d time.Duration) bool {
	if isDone(f) {
		return true
	}
	timer.Reset(d)
	select {
	case <-f.Done():
		if !timer.Stop() {
			<-timer.C
		}
		return true
	case <-timer.C:
		return false
	}
}

// closedLoop is one writer goroutine that keeps at most window events
// unacknowledged: it sends as fast as acknowledgements free slots, so a
// slower system receives less load. Acknowledgements are harvested in send
// order by the same goroutine. It sends until the phase stops, or limit
// events when limit is not zero.
func closedLoop(w *pravega.EventWriter, g *generator, window int, limit int64, ph *phase, tr *tracer, st *writeStats) {
	ring := make([][]byte, window)
	for i := range ring {
		ring[i] = make([]byte, g.size)
	}
	q := make([]pending, window)
	head, n := 0, 0
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	pop := func(now int64) {
		st.ack(q[head], now, ph.window.Load(), g.size, closedLatencyEvery)
		head = (head + 1) % window
		n--
	}
	for !ph.stopped.Load() && (limit == 0 || st.sent < limit) {
		now := time.Now()
		for n > 0 && isDone(q[head].f) {
			pop(now.UnixNano())
		}
		if n == window {
			if !await(q[head].f, timer, ackTimeout) {
				st.failed += int64(n) // the pipeline is stuck; nothing behind the head can be trusted to arrive
				return
			}
			pop(time.Now().UnixNano())
			continue
		}
		slot := (head + n) % window
		key := g.next(ring[slot], now.UnixNano())
		f := w.WriteEvent(key, ring[slot])
		if st.sent%callSpanEvery == 0 && ph.tracing() {
			tr.record("client.write_call", now, time.Now())
		}
		q[slot] = pending{f, now.UnixNano()}
		n++
		st.sent++
	}
	for ; n > 0; pop(time.Now().UnixNano()) {
		if !await(q[head].f, timer, ackTimeout) {
			st.failed += int64(n)
			return
		}
	}
}

// sleepUntil waits for a wall-clock instant with nanosleep(2): Go's timers
// wake through the netpoller at millisecond granularity, which is ten
// sends late at 10 000 events/s.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// openLoop sends on a fixed schedule whatever the system does. Each event
// is stamped with, and timed from, the instant it was due, so a stall shows
// in the latency of every event it delayed. Acknowledgements are collected
// by collect through acks, whose capacity bounds the events in flight.
func openLoop(w *pravega.EventWriter, g *generator, rate float64, ph *phase, tr *tracer, st *writeStats, acks chan<- pending) {
	defer close(acks)
	// An event's buffer is free again once collect has seen its ack: that
	// is at most cap(acks) queued, one held by collect, one being queued.
	ring := make([][]byte, cap(acks)+2)
	for i := range ring {
		ring[i] = make([]byte, g.size)
	}
	period := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for i := 0; !ph.stopped.Load(); i++ {
		due := t0.Add(time.Duration(i) * period)
		sleepUntil(due)
		now := time.Now()
		if ph.window.Load() != 0 {
			st.lagNS = append(st.lagNS, int64(now.Sub(due)))
		}
		buf := ring[i%len(ring)]
		key := g.next(buf, due.UnixNano())
		f := w.WriteEvent(key, buf)
		if ph.tracing() {
			tr.record("client.write_call", now, time.Now())
		}
		st.sent++
		acks <- pending{f, due.UnixNano()}
	}
}

// collect times acknowledgements in send order. On a one-segment stream
// futures resolve in that order, so each is timed exactly.
func collect(acks <-chan pending, size int, ph *phase, st *writeStats) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	stuck := false
	for p := range acks {
		if stuck || !await(p.f, timer, ackTimeout) {
			stuck = true // keep draining so the sender never blocks forever
			st.failed++
			continue
		}
		st.ack(p, time.Now().UnixNano(), ph.window.Load(), size, 1)
	}
}

type readWindow struct {
	events, bytes int64
	e2eNS         []int64 // intended send instant to ReadNextEvent return
}

type readStats struct {
	win  []readWindow // per window of the phase
	errs int64
}

func newReadStats(ph *phase) *readStats {
	return &readStats{win: make([]readWindow, ph.windows()+1)}
}

// readGoal tells a reader when it is finished: once it has delivered
// target events, or at the deadline. Both are unset (-1, 0) while the
// writer is still sending.
type readGoal struct {
	target     atomic.Int64
	deadlineNS atomic.Int64
}

func newReadGoal() *readGoal {
	g := &readGoal{}
	g.target.Store(-1)
	return g
}

// finish is called once the writer knows how many events were acknowledged.
func (g *readGoal) finish(target int64) {
	g.deadlineNS.Store(time.Now().Add(ackTimeout).UnixNano())
	g.target.Store(target)
}

// readLoop is one reader goroutine. It verifies every event, and times tail
// events end to end when tail is set (a catch-up reader's events were sent
// long ago). untilStop makes the end of the measured interval end the loop.
func readLoop(r *pravega.Reader, v *verifier, tail, untilStop bool, goal *readGoal, ph *phase, tr *tracer, st *readStats) {
	for n := 0; ; n++ {
		if t := goal.target.Load(); t >= 0 && v.read >= t {
			return
		}
		if untilStop && ph.stopped.Load() {
			return
		}
		start := time.Now()
		if d := goal.deadlineNS.Load(); d != 0 && start.UnixNano() > d {
			return
		}
		ev, err := r.ReadNextEvent(100 * time.Millisecond)
		if errors.Is(err, pravega.ErrNoEvent) {
			continue
		}
		if err != nil {
			if st.errs++; st.errs > 100 {
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		now := time.Now()
		window := ph.window.Load()
		if n%callSpanEvery == 0 && ph.traced[window] {
			tr.record("client.read_call", start, now)
		}
		sendNS := v.check(ev.Data)
		w := &st.win[window]
		w.events++
		w.bytes += int64(len(ev.Data))
		if tail && window != 0 {
			w.e2eNS = append(w.e2eNS, now.UnixNano()-sendNS)
		}
	}
}
