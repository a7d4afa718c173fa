package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/pravega-go/pravega/internal/obs"
)

// samples is one scrape: series id (name plus rendered labels, exactly as
// exported) to value.
type samples map[string]float64

// parsePrometheus reads the text exposition format the servers' -metrics
// endpoint and obs.Registry.WritePrometheus produce.
func parsePrometheus(r io.Reader) (samples, error) {
	out := make(samples)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the last field; label values may contain spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("scrape: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: malformed value in %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

var scrapeClient = &http.Client{Timeout: 2 * time.Second}

// scrape fetches one server's /metrics.
func scrape(addr string) (samples, error) {
	resp, err := scrapeClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	return parsePrometheus(resp.Body)
}

// scrapeSelf snapshots the bench process's own registry (client metrics)
// through the same text format, so all three sources parse alike.
func scrapeSelf() (samples, error) {
	var b bytes.Buffer
	if err := obs.Default().WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parsePrometheus(&b)
}

// delta returns after[id] - before[id].
func delta(before, after samples, id string) float64 { return after[id] - before[id] }

// quantileOf reads a summary's exported quantile. The servers keep one
// histogram per process lifetime, so this includes warm-up.
func quantileOf(s samples, name, q string) float64 {
	return s[name+`{quantile="`+q+`"}`]
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds returns utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

func parseProcStat(stat string) (float64, error) {
	// comm may contain spaces and parentheses; fields resume after the last ')'.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no comm in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: short line %q", stat)
	}
	// After comm: state is f[0], so utime (field 14) is f[11], stime f[12].
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime in %q", stat)
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB returns VmHWM, the process's peak resident set, in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM for pid %d", pid)
}
