package omb

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/baselines/kafka"
	"github.com/pravega-go/pravega/internal/baselines/pulsar"
	"github.com/pravega-go/pravega/pkg/pravega"
)

// ---------------------------------------------------------------- Pravega

// PravegaSystem adapts a pravega.System to the driver.
type PravegaSystem struct {
	Sys   *pravega.System
	Scope string
	Label string
	// Writer tuning passed through to each producer.
	WriterConfig pravega.WriterConfig
}

var _ System = (*PravegaSystem)(nil)

// Name implements System.
func (p *PravegaSystem) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "Pravega"
}

// CreateTopic implements System: a stream with fixed parallelism.
func (p *PravegaSystem) CreateTopic(topic string, partitions int) error {
	return p.Sys.Streams().Create(context.Background(), pravega.StreamConfig{
		Scope:           p.Scope,
		Name:            topic,
		InitialSegments: partitions,
	})
}

// NewProducer implements System.
func (p *PravegaSystem) NewProducer(topic string) (Producer, error) {
	cfg := p.WriterConfig
	cfg.Scope = p.Scope
	cfg.Stream = topic
	w, err := p.Sys.NewWriter(cfg)
	if err != nil {
		return nil, err
	}
	return &pravegaProducer{w: w}, nil
}

type pravegaProducer struct {
	w  *pravega.EventWriter
	rr atomic.Int64
}

type pravegaAck struct{ f *pravega.WriteFuture }

func (a pravegaAck) Done() <-chan struct{} { return a.f.Done() }
func (a pravegaAck) Err() error            { return a.f.Err() }

func (pp *pravegaProducer) Send(key string, size int, produced time.Time) Ack {
	if key == "" {
		// "No routing keys": spread events without ordering guarantees.
		key = fmt.Sprintf("rr-%d", pp.rr.Add(1))
	}
	return pravegaAck{f: pp.w.WriteEvent(key, encodePayload(size, produced))}
}

func (pp *pravegaProducer) Flush() error { return pp.w.Flush(context.Background()) }
func (pp *pravegaProducer) Close() error { return pp.w.Close() }

// Close implements System.
func (p *PravegaSystem) Close() { p.Sys.Close() }

// NewConsumers implements System: one reader group shared by n readers.
func (p *PravegaSystem) NewConsumers(topic string, n int) ([]Consumer, error) {
	rg, err := p.Sys.NewReaderGroup(fmt.Sprintf("omb-%s-%d", topic, time.Now().UnixNano()), p.Scope, topic)
	if err != nil {
		return nil, err
	}
	out := make([]Consumer, n)
	for i := range out {
		r, err := rg.NewReader(fmt.Sprintf("reader-%d", i))
		if err != nil {
			return nil, err
		}
		out[i] = &pravegaConsumer{r: r}
	}
	return out, nil
}

type pravegaConsumer struct{ r *pravega.Reader }

func (pc *pravegaConsumer) Poll(maxWait time.Duration) ([]Message, error) {
	ev, err := pc.r.ReadNextEvent(maxWait)
	if err != nil {
		if err == pravega.ErrNoEvent {
			return nil, nil
		}
		return nil, err
	}
	out := []Message{decodePayload(ev.Data)}
	// Drain whatever is already buffered without further waiting.
	for len(out) < 512 {
		ev, err := pc.r.ReadNextEvent(0)
		if err != nil {
			break
		}
		out = append(out, decodePayload(ev.Data))
	}
	return out, nil
}

func (pc *pravegaConsumer) Close() error { return pc.r.Close() }

// encodePayload embeds the produce timestamp for e2e latency measurement.
func encodePayload(size int, produced time.Time) []byte {
	if size < 8 {
		size = 8
	}
	buf := make([]byte, size)
	binary.BigEndian.PutUint64(buf, uint64(produced.UnixNano()))
	return buf
}

func decodePayload(data []byte) Message {
	m := Message{Size: len(data)}
	if len(data) >= 8 {
		m.Produced = time.Unix(0, int64(binary.BigEndian.Uint64(data)))
	}
	return m
}

// ------------------------------------------------------------------ Kafka

// KafkaSystem adapts the Kafka-like baseline.
type KafkaSystem struct {
	Cluster  *kafka.Cluster
	Label    string
	Producer kafka.ProducerConfig
}

var _ System = (*KafkaSystem)(nil)

// Name implements System.
func (k *KafkaSystem) Name() string {
	if k.Label != "" {
		return k.Label
	}
	return "Kafka"
}

// CreateTopic implements System.
func (k *KafkaSystem) CreateTopic(topic string, partitions int) error {
	return k.Cluster.CreateTopic(topic, partitions)
}

// NewProducer implements System.
func (k *KafkaSystem) NewProducer(topic string) (Producer, error) {
	cfg := k.Producer
	cfg.Topic = topic
	p, err := k.Cluster.NewProducer(cfg)
	if err != nil {
		return nil, err
	}
	return &kafkaProducer{p: p}, nil
}

type kafkaProducer struct{ p *kafka.Producer }

func (kp *kafkaProducer) Send(key string, size int, _ time.Time) Ack {
	return kp.p.Send(key, size)
}
func (kp *kafkaProducer) Flush() error { kp.p.Flush(); return nil }
func (kp *kafkaProducer) Close() error { kp.p.Close(); return nil }

// NewConsumers implements System: partitions split across n consumers.
func (k *KafkaSystem) NewConsumers(topic string, n int) ([]Consumer, error) {
	total, err := k.Cluster.Partitions(topic)
	if err != nil {
		return nil, err
	}
	out := make([]Consumer, 0, n)
	for i := 0; i < n; i++ {
		var parts []int
		for p := i; p < total; p += n {
			parts = append(parts, p)
		}
		if len(parts) == 0 {
			parts = []int{i % total}
		}
		c, err := k.Cluster.NewConsumer(topic, parts, k.Producer.Profile)
		if err != nil {
			return nil, err
		}
		out = append(out, kafkaConsumer{c: c})
	}
	return out, nil
}

type kafkaConsumer struct{ c *kafka.Consumer }

func (kc kafkaConsumer) Poll(maxWait time.Duration) ([]Message, error) {
	msgs, err := kc.c.Poll(1<<20, maxWait)
	if err != nil {
		return nil, err
	}
	out := make([]Message, len(msgs))
	for i, m := range msgs {
		out[i] = Message{Size: m.Size, Produced: m.Produced}
	}
	return out, nil
}

func (kc kafkaConsumer) Close() error { return nil }

// Close implements System.
func (k *KafkaSystem) Close() { k.Cluster.Close() }

// ----------------------------------------------------------------- Pulsar

// PulsarSystem adapts the Pulsar-like baseline.
type PulsarSystem struct {
	Cluster  *pulsar.Cluster
	Label    string
	Producer pulsar.ProducerConfig
}

var _ System = (*PulsarSystem)(nil)

// Name implements System.
func (p *PulsarSystem) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "Pulsar"
}

// CreateTopic implements System.
func (p *PulsarSystem) CreateTopic(topic string, partitions int) error {
	return p.Cluster.CreateTopic(topic, partitions)
}

// NewProducer implements System.
func (p *PulsarSystem) NewProducer(topic string) (Producer, error) {
	cfg := p.Producer
	cfg.Topic = topic
	pr, err := p.Cluster.NewProducer(cfg)
	if err != nil {
		return nil, err
	}
	return &pulsarProducer{p: pr}, nil
}

type pulsarProducer struct{ p *pulsar.Producer }

func (pp *pulsarProducer) Send(key string, size int, _ time.Time) Ack {
	return pp.p.Send(key, size)
}
func (pp *pulsarProducer) Flush() error { pp.p.Flush(); return nil }
func (pp *pulsarProducer) Close() error { pp.p.Close(); return nil }

// NewConsumers implements System.
func (p *PulsarSystem) NewConsumers(topic string, n int) ([]Consumer, error) {
	total, err := p.Cluster.Partitions(topic)
	if err != nil {
		return nil, err
	}
	out := make([]Consumer, 0, n)
	for i := 0; i < n; i++ {
		var parts []int
		for pi := i; pi < total; pi += n {
			parts = append(parts, pi)
		}
		if len(parts) == 0 {
			parts = []int{i % total}
		}
		c, err := p.Cluster.NewConsumer(topic, parts, p.Producer.Profile)
		if err != nil {
			return nil, err
		}
		out = append(out, pulsarConsumer{c: c})
	}
	return out, nil
}

type pulsarConsumer struct{ c *pulsar.Consumer }

func (pc pulsarConsumer) Poll(maxWait time.Duration) ([]Message, error) {
	msgs, err := pc.c.Poll(1<<20, maxWait)
	if err != nil {
		return nil, err
	}
	out := make([]Message, len(msgs))
	for i, m := range msgs {
		out[i] = Message{Size: m.Size, Produced: m.Produced}
	}
	return out, nil
}

func (pc pulsarConsumer) Close() error { return nil }

// Close implements System.
func (p *PulsarSystem) Close() { p.Cluster.Close() }
