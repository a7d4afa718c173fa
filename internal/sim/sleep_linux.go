package sim

import (
	"syscall"
	"time"
)

// preciseSleep waits d in nanosleep, which oversleeps by tens of
// microseconds. time.Sleep parks on the runtime's poller, whose timeout is
// whole milliseconds on Linux, so an idle process sleeps about 1.1 ms for
// a 200 µs link. The cost is an OS thread blocked for the wait.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		// A signal cut the wait short: sleep out the remainder.
	}
}
