//go:build !linux

package sim

import "time"

// preciseSleep is time.Sleep where nanosleep is not available.
func preciseSleep(d time.Duration) { time.Sleep(d) }
