// Package pravega is the public client API of this Pravega reproduction: a
// distributed, tiered storage system for data streams (Gracia-Tinedo et
// al., Middleware '23).
//
// A System bundles a running cluster (controller, segment stores, bookie
// ensemble, long-term storage). Applications create scopes and streams
// through the stream-manager methods, append events with EventWriter
// (per-routing-key order, exactly-once), and consume them with coordinated
// ReaderGroups. Streams are elastic: with an auto-scaling policy the system
// splits and merges segments as the ingest load changes.
//
// Quick start:
//
//	ctx := context.Background()
//	sys, _ := pravega.NewInProcess(pravega.SystemConfig{})
//	defer sys.Close()
//	_ = sys.Streams().CreateScope(ctx, "demo")
//	_ = sys.Streams().Create(ctx, pravega.StreamConfig{Scope: "demo", Name: "events", InitialSegments: 2})
//	w, _ := sys.NewWriter(pravega.WriterConfig{Scope: "demo", Stream: "events"})
//	_ = w.WriteEvent("sensor-1", []byte("hello")).Wait(ctx)
//	rg, _ := sys.NewReaderGroup("rg", "demo", "events")
//	r, _ := rg.NewReader("reader-1")
//	ev, _ := r.ReadNextEvent(time.Second)
package pravega

import (
	"context"
	"errors"
	"time"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/internal/sim"
	"github.com/pravega-go/pravega/internal/wire"
)

// ScalingType selects the auto-scaling trigger of a stream policy.
type ScalingType string

// Scaling policy kinds (§2.1 of the paper).
const (
	// ScalingFixed keeps the segment count static.
	ScalingFixed ScalingType = "fixed"
	// ScalingByEventRate scales on events/second per segment.
	ScalingByEventRate ScalingType = "events"
	// ScalingByThroughput scales on bytes/second per segment.
	ScalingByThroughput ScalingType = "bytes"
)

// ScalingPolicy configures stream elasticity (§3.1).
type ScalingPolicy struct {
	// Type selects the trigger metric.
	Type ScalingType
	// TargetRate is the desired per-segment rate (events/s or bytes/s).
	TargetRate float64
	// ScaleFactor is how many successors a hot segment splits into.
	ScaleFactor int
	// MinSegments floors scale-down merges.
	MinSegments int
}

// RetentionType selects the truncation bound of a retention policy.
type RetentionType string

// Retention policy kinds (§2.1).
const (
	// RetentionNone retains the full stream history.
	RetentionNone RetentionType = "none"
	// RetentionBySize truncates once the stream exceeds LimitBytes.
	RetentionBySize RetentionType = "size"
	// RetentionByTime truncates data older than LimitDuration.
	RetentionByTime RetentionType = "time"
)

// RetentionPolicy bounds retained stream history.
type RetentionPolicy struct {
	Type          RetentionType
	LimitBytes    int64
	LimitDuration time.Duration
}

// StreamConfig describes a stream at creation time. Policies can be
// updated later with UpdateStreamPolicies.
type StreamConfig struct {
	Scope           string
	Name            string
	InitialSegments int
	Scaling         ScalingPolicy
	Retention       RetentionPolicy
}

// SystemConfig parameterizes an in-process deployment.
type SystemConfig struct {
	// Cluster is the coord and its stores (defaults: 3 stores × 4
	// containers, 3 bookies, replication 3/3/2 — the paper's Table 1
	// layout). Cluster.Profile also shapes the links: the client's and the
	// roles'. Cluster.Coord sets the coord's controller: for example,
	// Cluster.Coord.PolicyInterval starts its auto-scaling, retention and
	// transaction-lease loops at that period (zero = loops disabled), and
	// Cluster.Coord.ScaleCooldown is the per-stream hysteresis between
	// scaling events.
	Cluster role.ClusterConfig
	// MetricsAddr starts the observability HTTP endpoint on this address
	// (Prometheus text on /metrics, expvar on /debug/vars, pprof under
	// /debug/pprof/, sampled append spans on /debug/traces). Empty
	// disables the endpoint; "127.0.0.1:0" picks an ephemeral port (see
	// System.MetricsAddr).
	MetricsAddr string
}

// System is a handle on a Pravega deployment, reached over the wire
// protocol: a coord and its stores in this process on in-memory listeners
// (NewInProcess), or a remote one over TCP (Connect). Both open the same
// wire client, so writers, readers, reader groups and KV tables take one
// code path.
type System struct {
	cluster *role.Cluster // nil for Connect systems
	client  *wire.Client  // control and data plane
	// data is client as every component's data transport; tests wrap it.
	data   client.DataTransport
	obsSrv *obs.Server

	// ctx ends when the System closes: readers' fetchers derive from it.
	ctx    context.Context
	cancel context.CancelFunc
}

// NewInProcess starts a coord and its stores in this process, each on its
// own in-memory listener, and connects to them as Connect does: the client
// bootstraps from the coord and sends data straight to the stores. Client
// connections are shaped by Cluster.Profile's client link, the roles'
// connections to each other by its replica link.
func NewInProcess(cfg SystemConfig) (*System, error) {
	var clientLink, replicaLink sim.LinkConfig
	if p := cfg.Cluster.Profile; p != nil {
		clientLink, replicaLink = p.ClientLink, p.ReplicaLink
	}
	nw := sim.NewNet()
	cl, err := role.StartCluster(role.SimNet(nw, replicaLink), cfg.Cluster)
	if err != nil {
		return nil, err
	}
	s, err := connect(nw.Dialer(clientLink), cl.Addr(), wire.ClientConfig{})
	if err != nil {
		cl.Close()
		return nil, err
	}
	s.cluster = cl
	if cfg.MetricsAddr != "" {
		srv, err := obs.Serve(cfg.MetricsAddr, obs.Default())
		if err != nil {
			s.Close()
			return nil, err
		}
		s.obsSrv = srv
	}
	return s, nil
}

// ClientConfig tunes a remote System opened with Connect. A lost server
// connection is redialed with capped exponential backoff, 5ms to 1s.
type ClientConfig struct {
	// SyncRetryWindow is how long synchronous operations keep retrying
	// across a lost connection before failing with ErrDisconnected
	// (default 15s). Pipelined appends never retry at the transport — the
	// event writer replays them after reconnecting, preserving exactly-once
	// semantics.
	SyncRetryWindow time.Duration
}

// Connect opens a remote System over the wire protocol (one pooled,
// pipelined connection per segment store, served by cmd/pravega-server).
// The returned System supports the full client API — writers, readers,
// reader groups, state-synchronized KV tables — with the same semantics as
// an in-process deployment; Cluster and Controller return nil for it.
func Connect(addr string, cfg ClientConfig) (*System, error) {
	return connect(wire.DialTCP, addr, wire.ClientConfig{SyncRetryWindow: cfg.SyncRetryWindow})
}

func connect(dial wire.Dialer, addr string, cfg wire.ClientConfig) (*System, error) {
	wc, err := wire.NewClientOver(dial, addr, cfg)
	if err != nil {
		return nil, err
	}
	s := &System{client: wc, data: wc}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// Close drops the client, then shuts down the in-process deployment behind
// it, and stops the fetchers of every reader still open.
func (s *System) Close() {
	s.cancel()
	if s.obsSrv != nil {
		_ = s.obsSrv.Close()
	}
	_ = s.client.Close()
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// MetricsAddr returns the bound address of the observability endpoint, or
// "" when SystemConfig.MetricsAddr was empty.
func (s *System) MetricsAddr() string {
	if s.obsSrv == nil {
		return ""
	}
	return s.obsSrv.Addr()
}

// Cluster exposes the underlying deployment (advanced use: failure
// injection in tests, metrics in the benchmark harness). It is nil for a
// System opened with Connect.
func (s *System) Cluster() *role.Cluster { return s.cluster }

// Controller exposes the control plane (advanced use). It is nil for a
// System opened with Connect.
func (s *System) Controller() *controller.Controller {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.Controller()
}

func toInternalScaling(p ScalingPolicy) controller.ScalingPolicy {
	return controller.ScalingPolicy{
		Type:        controller.ScalingType(orDefault(string(p.Type), string(ScalingFixed))),
		TargetRate:  p.TargetRate,
		ScaleFactor: p.ScaleFactor,
		MinSegments: p.MinSegments,
	}
}

func orDefault(v, d string) string {
	if v == "" {
		return d
	}
	return v
}

// routeTable is the writer's view of a stream's active segments.
type routeTable struct {
	segments []controller.SegmentWithRange
}

// segmentFor maps a hashed key to the owning active segment.
func (rt *routeTable) segmentFor(h float64) (controller.SegmentWithRange, error) {
	for _, s := range rt.segments {
		if s.KeyRange.Contains(h) {
			return s, nil
		}
	}
	return controller.SegmentWithRange{}, errors.New("pravega: no active segment covers key")
}
