// Package figures regenerates every figure of the paper's evaluation
// (§5.2–§5.8) against the in-process deployments: Pravega (this library)
// and the Kafka-like and Pulsar-like baselines, all running over the same
// simulated device profile. Rates and bandwidths are scaled down by
// Options.Scale; reported numbers are converted back to paper scale so the
// output is directly comparable with the publication.
package figures

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/pravega-go/pravega/internal/baselines/kafka"
	"github.com/pravega-go/pravega/internal/baselines/pulsar"
	"github.com/pravega-go/pravega/internal/blockcache"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/omb"
	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/sim"
	"github.com/pravega-go/pravega/pkg/pravega"
)

// Options control a figure run.
type Options struct {
	// Scale divides device bandwidths and workload rates (default 16).
	Scale float64
	// PointDuration is the measured interval per sweep point (default 2s).
	PointDuration time.Duration
	// WarmUp precedes each measured interval (default 750ms).
	WarmUp time.Duration
	// Quick trims sweeps for use under `go test -bench` (fewer points,
	// smaller extremes).
	Quick bool
	// Out receives the human-readable report (nil = io.Discard).
	Out io.Writer
}

func (o *Options) defaults() {
	if o.Scale <= 0 {
		o.Scale = 16
	}
	if o.PointDuration <= 0 {
		o.PointDuration = 2 * time.Second
	}
	if o.WarmUp <= 0 {
		o.WarmUp = 750 * time.Millisecond
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
}

func (o *Options) profile() *sim.Profile {
	p := sim.AWSProfile(o.Scale)
	return &p
}

// Point is one measurement of one series.
type Point struct {
	Series string
	// X is the sweep coordinate in paper-scale units (events/s, MB/s or
	// segment count, depending on the figure).
	X float64
	// Result carries the measured values (rates converted to paper scale
	// by the figure runner before storing).
	Result omb.Result
}

// Figure is one regenerated evaluation figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Points []Point
	Notes  []string
}

func (f *Figure) add(series string, x float64, r omb.Result) {
	f.Points = append(f.Points, Point{Series: series, X: x, Result: r})
}

func (f *Figure) note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Print writes the figure as aligned rows.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-34s %12s %10s %10s %10s %12s %12s %12s %8s\n",
		"series", f.XLabel, "ke/s", "MB/s", "rd MB/s", "wr p50(ms)", "wr p95(ms)", "e2e p95(ms)", "status")
	for _, p := range f.Points {
		status := "ok"
		if p.Result.Failed {
			status = "FAILED"
		}
		fmt.Fprintf(w, "%-34s %12.0f %10.1f %10.1f %10.1f %12.2f %12.2f %12.2f %8s\n",
			p.Series, p.X,
			p.Result.EventsPerSec/1e3, p.Result.MBPerSec, p.Result.ReadMBPerSec,
			p.Result.WriteLatency.P50/1e3, p.Result.WriteLatency.P95/1e3,
			p.Result.E2ELatency.P95/1e3, status)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// scaleUp converts a measured (scaled) result back to paper-scale rates.
func scaleUp(r omb.Result, scale float64) omb.Result {
	r.EventsPerSec *= scale
	r.MBPerSec *= scale
	r.ReadMBPerSec *= scale
	return r
}

// ------------------------------------------------------- deployment builders

// pravegaVariant selects the Pravega configurations of §5.
type pravegaVariant struct {
	label   string
	noFlush bool // disable journal fsync ("no flush", §5.2)
	noOpLTS bool // metadata-only LTS (§5.4)
	seqRead bool // single-chunk sequential LTS reads, no readahead (Fig. 12 baseline)
}

// newPravega builds a Pravega deployment sized like Table 1 (3 segment
// stores + 3 bookies, replication 3/3/2) on the scaled profile.
func newPravega(o *Options, v pravegaVariant) (*omb.PravegaSystem, error) {
	prof := o.profile()
	ccfg := role.ClusterConfig{
		Coord: role.CoordConfig{Stores: 3, Containers: 4, Bookies: 3, NoSyncJournal: v.noFlush, DiscardData: true},
		Store: role.StoreConfig{Container: segstore.ContainerConfig{
			Cache:             blockcache.Config{MaxBuffers: 8}, // 16 MiB/container
			MaxUnflushedBytes: 16 << 20,
			FlushSizeBytes:    1 << 20,
			FlushInterval:     100 * time.Millisecond,
		}},
		Profile: prof,
	}
	if v.noOpLTS {
		ccfg.Store.LTS = lts.NewNoOp()
	}
	if v.seqRead {
		ccfg.Store.Container.MaxReadFanout = 1
		ccfg.Store.Container.ReadAheadDepth = -1
	}
	sys, err := pravega.NewInProcess(pravega.SystemConfig{Cluster: ccfg})
	if err != nil {
		return nil, err
	}
	if err := sys.Streams().CreateScope(context.Background(), "bench"); err != nil {
		return nil, err
	}
	label := "Pravega"
	if v.label != "" {
		label = v.label
	}
	return &omb.PravegaSystem{Sys: sys, Scope: "bench", Label: label}, nil
}

// kafkaVariant selects the Kafka configurations of §5.
type kafkaVariant struct {
	label     string
	flush     bool // flush.messages=1, flush.ms=0
	batchSize int
	linger    time.Duration
}

func newKafka(o *Options, v kafkaVariant) *omb.KafkaSystem {
	prof := o.profile()
	cl := kafka.NewCluster(kafka.ClusterConfig{
		Brokers:           3,
		Replicas:          3,
		MinInsync:         2,
		FlushEveryMessage: v.flush,
		Profile:           prof,
	})
	label := "Kafka"
	if v.label != "" {
		label = v.label
	}
	return &omb.KafkaSystem{
		Cluster: cl,
		Label:   label,
		Producer: kafka.ProducerConfig{
			BatchSize: v.batchSize,
			Linger:    v.linger,
			Profile:   prof,
		},
	}
}

// pulsarVariant selects the Pulsar configurations of §5.
type pulsarVariant struct {
	label     string
	batching  bool
	batchWait time.Duration
	tiering   bool
	ackAll    bool // "favorable" configuration of Fig. 10b (ackQuorum=3)
}

func newPulsar(o *Options, v pulsarVariant) (*omb.PulsarSystem, error) {
	prof := o.profile()
	ccfg := pulsar.ClusterConfig{
		Brokers: 3,
		Profile: prof,
		Tiering: v.tiering,
	}
	if v.ackAll {
		ccfg.Replication.Ensemble = 3
		ccfg.Replication.WriteQuorum = 3
		ccfg.Replication.AckQuorum = 3
	}
	if v.tiering {
		ccfg.LTS = lts.NewSim(lts.NewNoOp(), prof.LTS)
	}
	cl, err := pulsar.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	label := "Pulsar"
	if v.label != "" {
		label = v.label
	}
	wait := v.batchWait
	if wait <= 0 {
		wait = time.Millisecond
	}
	return &omb.PulsarSystem{
		Cluster: cl,
		Label:   label,
		Producer: pulsar.ProducerConfig{
			Batching:   v.batching,
			BatchDelay: wait,
			Profile:    prof,
		},
	}, nil
}

// runPoint executes one workload on a fresh topic of the given system.
func runPoint(o *Options, sys omb.System, topicSeq *int, cfg omb.WorkloadConfig) (omb.Result, error) {
	*topicSeq++
	cfg.Topic = fmt.Sprintf("t%d", *topicSeq)
	if err := sys.CreateTopic(cfg.Topic, cfg.Partitions); err != nil {
		return omb.Result{}, err
	}
	if cfg.Duration <= 0 {
		cfg.Duration = o.PointDuration
	}
	if cfg.WarmUp <= 0 {
		cfg.WarmUp = o.WarmUp
	}
	r, err := omb.Run(sys, cfg)
	if err != nil {
		return omb.Result{}, err
	}
	return scaleUp(r, o.Scale), nil
}
