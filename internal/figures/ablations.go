package figures

import (
	"context"
	"time"

	"github.com/pravega-go/pravega/internal/blockcache"
	"github.com/pravega-go/pravega/internal/omb"
	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/pkg/pravega"
)

// Ablations isolates the design choices DESIGN.md calls out, by disabling
// them one at a time on otherwise identical deployments:
//
//   - "no adaptive frame delay": MaxFrameDelay=0 disables §4.1's
//     Delay = RecentLatency × (1 − AvgWriteSize/MaxFrameSize) wait, so data
//     frames close as soon as the queue drains.
//   - "no client pipelining": MaxInFlight=1 turns the writer's
//     self-clocking batching into stop-and-wait (one batch per RTT).
//   - "unbounded tiering backlog": a huge MaxUnflushedBytes removes the
//     integrated-tiering backpressure (Pulsar's behaviour, §5.4) — the
//     throughput looks better until LTS must catch up.
//
// Each variant runs the same fixed-rate ingest workload; the figure
// reports achieved throughput and write latency.
func Ablations(o Options) (*Figure, error) {
	o.defaults()
	fig := &Figure{ID: "Ablations", Title: "Design-choice ablations (1KB events, 16 segments, 1 writer)", XLabel: "target e/s"}
	rates := []float64{100e3, 400e3}
	if o.Quick {
		rates = rates[:1]
	}

	type variant struct {
		name string
		tune func(*role.ClusterConfig, *pravega.WriterConfig)
	}
	variants := []variant{
		{"baseline", func(*role.ClusterConfig, *pravega.WriterConfig) {}},
		{"no adaptive frame delay", func(cc *role.ClusterConfig, _ *pravega.WriterConfig) {
			cc.Store.Container.MaxFrameDelay = time.Nanosecond // effectively zero
		}},
		{"no client pipelining", func(_ *role.ClusterConfig, wc *pravega.WriterConfig) {
			wc.MaxInFlight = 1
		}},
		{"unbounded tiering backlog", func(cc *role.ClusterConfig, _ *pravega.WriterConfig) {
			cc.Store.Container.MaxUnflushedBytes = 1 << 40
		}},
	}
	for _, v := range variants {
		for _, rate := range rates {
			prof := o.profile()
			ccfg := role.ClusterConfig{
				Coord: role.CoordConfig{Stores: 3, Containers: 4, Bookies: 3, DiscardData: true},
				Store: role.StoreConfig{Container: segstore.ContainerConfig{
					Cache:             blockcache.Config{MaxBuffers: 8},
					MaxUnflushedBytes: 16 << 20,
				}},
				Profile: prof,
			}
			wcfg := pravega.WriterConfig{}
			v.tune(&ccfg, &wcfg)
			sys, err := pravega.NewInProcess(pravega.SystemConfig{Cluster: ccfg})
			if err != nil {
				return fig, err
			}
			if err := sys.Streams().CreateScope(context.Background(), "bench"); err != nil {
				sys.Close()
				return fig, err
			}
			psys := &omb.PravegaSystem{Sys: sys, Scope: "bench", Label: v.name, WriterConfig: wcfg}
			seq := 0
			r, err := runPoint(&o, psys, &seq, omb.WorkloadConfig{
				Partitions:     16,
				Producers:      1,
				RatePerSec:     rate / o.Scale,
				EventSize:      1000,
				KeyCardinality: 1000,
			})
			psys.Close()
			if err != nil {
				return fig, err
			}
			fig.add(v.name, rate, r)
		}
	}
	fig.note("ablation: removing any one mechanism costs either latency (frame delay, pipelining) or safety (backpressure)")
	fig.Print(o.Out)
	return fig, nil
}
