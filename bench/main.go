// Command bench is the repository's standing benchmark: four fixed
// workloads against a real coord + store deployment it launches itself,
// end-to-end metrics measured untraced, per-layer metrics from a separate
// traced run. See README.md in this directory.
//
//	go run ./bench -seed 1                      all four workloads, untraced
//	go run ./bench -seed 1 -trace 1             the traced run: per-layer metrics
//	go run ./bench -workload tail_paced -seed 7 one workload
//	go run ./bench -quick                       2 s per workload (smoke)
//	go run ./bench -compare a.jsonl b.jsonl     apply BENCHMARK.json's bounds to two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 12

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	root    string // module root
	outDir  string // bench/out: the server binary, scratch directories, traces
	bin     string
	buildS  float64
	log     io.Writer
}

// document is what one invocation reports: where it ran, what it ran
// against, and each workload's result. -out appends it to a file, one
// document per line, which is what -compare reads.
type document struct {
	Host       map[string]any `json:"host"`
	Deployment map[string]any `json:"deployment"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Results    []*result      `json:"results"`
}

func main() {
	var (
		only    = flag.String("workload", "", "run only this workload (default: all four, one after another)")
		seed    = flag.Int64("seed", 1, "seed for keys, padding and key order")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace.<workload>.json")
		quick   = flag.Bool("quick", false, "smoke run: 2 s per workload, 64 MiB preload")
		out     = flag.String("out", "", "append this run's JSON document to the file (input to -compare)")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *quick {
		*seconds = 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	run := workloads
	if *only != "" {
		wl := findWorkload(*only)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *only))
		}
		run = []workload{*wl}
	}

	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, log: os.Stderr}
	var err error
	if cfg.root, err = moduleRoot(); err != nil {
		fatal(err)
	}
	cfg.outDir = filepath.Join(cfg.root, "bench", "out")
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	arm := guardExit()
	var build time.Duration
	if cfg.bin, build, err = buildServer(cfg.root, cfg.outDir); err != nil {
		fatal(err)
	}
	cfg.buildS = build.Seconds()
	// The wall budget, from here on (a first build is as slow as the machine
	// makes it): three times the nominal length of what was asked for. Every
	// wait inside a workload has its own deadline and ends in a result with
	// failed operations; this is the backstop behind them.
	arm(time.Duration(len(run)) * 3 * (time.Duration(*seconds*float64(time.Second)) + 20*time.Second))

	doc := &document{
		Host:       hostShape(cfg.root),
		Deployment: deploymentShape(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
	hostJSON, _ := json.Marshal(doc.Host)
	fmt.Printf("host %s\n", hostJSON)
	ok := true
	for i := range run {
		res, err := runWorkload(cfg, &run[i])
		if err != nil {
			cleanupAll()
			fatal(fmt.Errorf("%s: %w", run[i].name, err))
		}
		printResult(os.Stdout, res)
		doc.Results = append(doc.Results, res)
		ok = ok && res.Correct
	}
	cleanupAll()
	if *out != "" {
		if err := appendDocument(*out, doc); err != nil {
			fatal(err)
		}
	}
	// The last line: one workload gives the driver's object, the full set
	// gives the whole document.
	var last any = doc
	if *only != "" {
		r := doc.Results[0]
		last = map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !ok {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// runWorkload runs one workload against a fresh deployment and always tears
// it down again.
func runWorkload(cfg *config, wl *workload) (*result, error) {
	start := time.Now()
	e := &env{cfg: cfg, wl: wl, pool: newPool(cfg.seed)}
	if cfg.trace {
		e.tr = newTracer(wl.name)
	}
	defer e.tearDown()
	// Kept until the deployment is gone: see disk.go.
	burn := filepath.Join(cfg.outDir, fmt.Sprintf("burn-%d", os.Getpid()))
	trackDir(burn)
	defer os.RemoveAll(burn)
	burnWarmBlocks(burn, cfg.log)
	if err := e.setUp(); err != nil {
		return nil, err
	}
	if err := wl.run(e); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, e.d.logs())
	}
	if cfg.trace {
		if err := e.probe(); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if err := e.tr.write(filepath.Join(cfg.outDir, "trace."+wl.name+".json")); err != nil {
			return nil, err
		}
	}
	return e.outcome(time.Since(start)), nil
}

// printResult prints every metric by name with its unit.
func printResult(w io.Writer, r *result) {
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d wall=%.1fs\n", r.Workload, r.Correct, r.Attempted, r.Failed, r.WallS)
	fmt.Fprintf(w, "%-16s %-34s %14.6g %s\n", r.Workload, "failed_ops_ratio", ratio, "ratio")
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-16s %-34s %14.6g %s\n", r.Workload, name, m.Value, m.Unit)
	}
	for _, um := range ungated {
		if m, ok := r.Ungated[um.name]; ok {
			fmt.Fprintf(w, "%-16s %-34s %14.6g %s (not gated)\n", r.Workload, um.name, m.Value, m.Unit)
		}
	}
}

func appendDocument(path string, doc *document) error {
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostShape records what the numbers were measured on.
func hostShape(root string) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"commit":     commit,
	}
}

// deploymentShape records the fixed deployment and the shipped defaults the
// workloads run with. Nothing here is tuned: these are what a user gets.
func deploymentShape() map[string]any {
	return map[string]any{
		"processes":        "1 coord (-stores 1) + 1 store, reached by pravega.Connect(coordAddr, ClientConfig{})",
		"containers":       deployContainers,
		"bookies":          deployBookies,
		"lease_ttl":        deployLeaseTTL.String(),
		"lts":              "lts.FS in the run's scratch directory (page cache)",
		"sim_profile":      "none",
		"writer_defaults":  "MaxBatchSize 1 MiB, MaxInFlight 2",
		"reader_defaults":  "64 KiB tail fetch escalating to 1 MiB, one prefetch per segment",
		"store_defaults":   "MaxFrameSize 1 MiB, MaxFrameDelay 20 ms, OpQueueLen 4096, FlushSizeBytes 1 MiB, MaxUnflushedBytes 32 MiB, cache 128 MiB per container, readahead depth 4 x 1 MiB",
		"setup_repeats":    setupRepeats,
		"preload_bytes":    preloadBytes,
		"alone_share":      aloneShare,
		"paced_pass_s":     pacedPass,
		"warmup":           "1.5 s per measured interval, 8 s on ingest_10kb",
		"ack_timeout":      ackTimeout.String(),
		"closed_windows":   fmt.Sprintf("%d x 100 B, %d x 10 KiB", smallWindow, largeWindow),
		"open_loop_rate":   fmt.Sprintf("%.0f ev/s x 100 B", tailRate),
		"open_loop_bound":  fmt.Sprintf("%.0f s of the rate in flight", openInFlight),
		"latency_sampling": fmt.Sprintf("closed loop: every %dth ack; open loop: every ack", closedLatencyEvery),
	}
}
