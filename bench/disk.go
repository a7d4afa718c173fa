package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// On the reference box the disk is thin-provisioned and the filesystem is
// mounted with discard. A file block freed a few seconds ago is still
// backed by the host and costs about 0.5 ms per MiB to write and sync, the
// same as overwriting in place; a block the filesystem has since discarded
// costs about 5 ms, most of it CPU. Every run ends by deleting gigabytes of
// long-term storage, so without care the next run's LTS flushes are cheap
// for its first gigabyte or two and expensive after that, depending on how
// soon it started: ingest_10kb moved 35 % between two such states.
//
// burnWarmBlocks removes the cheap state: it writes fresh files the way
// lts.FS writes chunks until their blocks cost several times an overwrite,
// and keeps what it wrote until the run's teardown so those blocks cannot
// come back. On a disk where new blocks never cost more than old ones it
// gives up after burnBudget.
const (
	burnBudget   = 4 * time.Second
	burnCold     = 3.0 // fresh write / overwrite cost ratio that counts as cold
	burnFileMiB  = 16  // lts.FS rolls a chunk over at 16 MiB; new files restart the block search where LTS chunks will
	burnColdRun  = 4   // this many files in a row all cold: no cheap blocks are left nearby
	burnOverRuns = 8
)

// burnWarmBlocks fills dir with files until fresh blocks are cold. The
// caller removes dir once the deployment is gone.
func burnWarmBlocks(dir string, log io.Writer) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		fmt.Fprintf(log, "bench: disk settle: %v\n", err)
		return
	}
	buf := filled(size1M)
	// writeFile writes one file a MiB at a time, syncing each, and returns
	// the median cost of a MiB. With rewrite it then overwrites the file in
	// place and returns that cost instead: the disk's own speed.
	writeFile := func(n int, rewrite bool) (float64, error) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprint(n)))
		if err != nil {
			return 0, err
		}
		defer f.Close()
		passes := 1
		if rewrite {
			passes = 2
		}
		var costs []float64
		for pass := 0; pass < passes; pass++ {
			costs = costs[:0]
			for chunk := 0; chunk < burnFileMiB; chunk++ {
				t0 := time.Now()
				if _, err := f.WriteAt(buf, int64(chunk)*size1M); err != nil {
					return 0, err
				}
				if err := f.Sync(); err != nil {
					return 0, err
				}
				costs = append(costs, float64(time.Since(t0)))
			}
		}
		sort.Float64s(costs)
		return percentile(costs, 0.5), nil
	}

	base, err := writeFile(0, true)
	if err != nil {
		fmt.Fprintf(log, "bench: disk settle: %v\n", err)
		return
	}
	start := time.Now()
	cold := 0
	for n := 1; cold < burnColdRun && time.Since(start) < burnBudget; n++ {
		cost, err := writeFile(n, false)
		if err != nil {
			fmt.Fprintf(log, "bench: disk settle: %v\n", err) // a full disk ends here; the run goes on
			return
		}
		if cost >= burnCold*base {
			cold++
		} else {
			cold = 0
		}
		if cold == burnColdRun && n > 2*burnColdRun {
			fmt.Fprintf(log, "bench: burnt %d MiB of recently freed disk blocks in %.1f s\n", (n-burnColdRun)*burnFileMiB, time.Since(start).Seconds())
		}
	}
}
