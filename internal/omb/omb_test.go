package omb

import (
	"context"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/baselines/kafka"
	"github.com/pravega-go/pravega/internal/baselines/pulsar"
	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/pkg/pravega"
)

func newPravegaSystem(t *testing.T) *PravegaSystem {
	t.Helper()
	sys, err := pravega.NewInProcess(pravega.SystemConfig{
		Cluster: role.ClusterConfig{Coord: role.CoordConfig{Stores: 1, Containers: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Streams().CreateScope(context.Background(), "omb"); err != nil {
		t.Fatal(err)
	}
	ps := &PravegaSystem{Sys: sys, Scope: "omb"}
	t.Cleanup(ps.Close)
	return ps
}

func TestRunAgainstPravega(t *testing.T) {
	sys := newPravegaSystem(t)
	if err := sys.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, WorkloadConfig{
		Topic:          "t",
		Partitions:     2,
		Producers:      2,
		RatePerSec:     500,
		EventSize:      100,
		Duration:       500 * time.Millisecond,
		WarmUp:         100 * time.Millisecond,
		KeyCardinality: 16,
		Consumers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsSent == 0 {
		t.Fatal("no events sent")
	}
	if res.EventsRecv == 0 {
		t.Fatal("no events consumed")
	}
	if res.WriteLatency.Count == 0 || res.E2ELatency.Count == 0 {
		t.Fatal("latency histograms empty")
	}
	if res.EventsPerSec < 100 || res.EventsPerSec > 2000 {
		t.Fatalf("rate control off: %.0f e/s for a 500 e/s target", res.EventsPerSec)
	}
	if res.Failed {
		t.Fatal("run marked failed")
	}
}

func TestRunClosedLoopMaxRate(t *testing.T) {
	sys := newPravegaSystem(t)
	if err := sys.CreateTopic("max", 2); err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, WorkloadConfig{
		Topic:          "max",
		Partitions:     2,
		Producers:      1,
		RatePerSec:     0, // closed loop
		EventSize:      100,
		Duration:       300 * time.Millisecond,
		WarmUp:         50 * time.Millisecond,
		KeyCardinality: 8,
		MaxOutstanding: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsPerSec < 1000 {
		t.Fatalf("closed loop too slow: %.0f e/s", res.EventsPerSec)
	}
}

func TestRunAgainstKafkaBaseline(t *testing.T) {
	cl := kafka.NewCluster(kafka.ClusterConfig{})
	sys := &KafkaSystem{Cluster: cl, Producer: kafka.ProducerConfig{Linger: time.Millisecond}}
	defer sys.Close()
	if err := sys.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, WorkloadConfig{
		Topic: "t", Partitions: 2, Producers: 1,
		RatePerSec: 1000, EventSize: 100,
		Duration: 300 * time.Millisecond, WarmUp: 50 * time.Millisecond,
		KeyCardinality: 16, Consumers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsSent == 0 || res.EventsRecv == 0 {
		t.Fatalf("kafka baseline run empty: %+v", res)
	}
}

func TestRunAgainstPulsarBaseline(t *testing.T) {
	cl, err := pulsar.NewCluster(pulsar.ClusterConfig{DispatcherTick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sys := &PulsarSystem{Cluster: cl, Producer: pulsar.ProducerConfig{Batching: true, BatchDelay: time.Millisecond}}
	defer sys.Close()
	if err := sys.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, WorkloadConfig{
		Topic: "t", Partitions: 2, Producers: 1,
		RatePerSec: 1000, EventSize: 100,
		Duration: 300 * time.Millisecond, WarmUp: 50 * time.Millisecond,
		KeyCardinality: 16, Consumers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsSent == 0 || res.EventsRecv == 0 {
		t.Fatalf("pulsar baseline run empty: %+v", res)
	}
}

func TestPayloadTimestampRoundTrip(t *testing.T) {
	ts := time.Now().Round(0)
	buf := encodePayload(100, ts)
	if len(buf) != 100 {
		t.Fatalf("payload %d bytes", len(buf))
	}
	m := decodePayload(buf)
	if m.Size != 100 || !m.Produced.Equal(ts) {
		t.Fatalf("decode = %+v", m)
	}
	// Tiny payloads are padded to hold the timestamp.
	if len(encodePayload(2, ts)) != 8 {
		t.Fatal("tiny payload not padded")
	}
}

func TestNoKeysWorkload(t *testing.T) {
	sys := newPravegaSystem(t)
	if err := sys.CreateTopic("nk", 2); err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, WorkloadConfig{
		Topic: "nk", Partitions: 2, Producers: 1,
		RatePerSec: 300, EventSize: 100,
		Duration: 300 * time.Millisecond, WarmUp: 50 * time.Millisecond,
		KeyCardinality: 0, // no routing keys
	})
	if err != nil || res.EventsSent == 0 {
		t.Fatalf("no-keys run: %+v, %v", res, err)
	}
}
