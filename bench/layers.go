package main

import (
	"math"
	"os"
)

// layers lists every per-layer metric with its unit and which direction is
// better, in report order. BENCHMARK.json's per_layer carries the same; a
// test keeps the two in step. Sources: "span" = harness-side timing of calls into the layer
// (probes.go, and the workload's own client calls), "scrape" = delta of the
// servers' -metrics endpoints and of this process's registry over the
// primary phase, "proc" = /proc. A *_p50 taken from a scraped summary's
// quantile series covers the server's whole life, warm-up included.
var layers = []metricSpec{
	// pkg/pravega (client)
	{"client.write_call_us_p50", "us", "lower"},
	{"client.read_call_us_p50", "us", "lower"},
	{"client.allocs_per_event", "count", "lower"},
	{"client.batch_events_mean", "count", "higher"},
	{"client.batch_fill_pct_mean", "%", "higher"},
	{"client.write_rtt_us_p50", "us", "lower"},
	{"client.prefetches", "count", "higher"},
	{"client.events_read", "count", "higher"},
	{"client.self_us_p50", "us", "lower"},
	// internal/wire
	{"wire.roundtrip_us_p50", "us", "lower"},
	{"wire.append_100b_us_p50", "us", "lower"},
	{"wire.append_64k_us_p50", "us", "lower"},
	{"wire.append_1m_us_p50", "us", "lower"},
	{"wire.read_64k_us_p50", "us", "lower"},
	{"wire.bookie_add_64k_us_p50", "us", "lower"},
	{"wire.acks_per_flush_mean", "count", "higher"},
	{"wire.store_requests", "count", "lower"},
	{"wire.coord_requests", "count", "lower"},
	{"wire.read_bytes", "bytes", "higher"},
	{"wire.self_us_p50", "us", "lower"},
	// internal/segstore
	{"segstore.append_100b_us_p50", "us", "lower"},
	{"segstore.append_64k_us_p50", "us", "lower"},
	{"segstore.marshal_frame_ns_per_op", "ns", "lower"},
	{"segstore.unmarshal_frame_ns_per_op", "ns", "lower"},
	{"segstore.frame_ops_mean", "count", "higher"},
	{"segstore.frame_bytes_mean", "bytes", "higher"},
	{"segstore.frames", "count", "lower"},
	{"segstore.ops", "count", "lower"},
	{"segstore.apply_us_p50", "us", "lower"},
	{"segstore.queue_depth_max", "count", "lower"},
	{"segstore.self_us_p50", "us", "lower"},
	{"segstore.throttle_engaged", "count", "lower"},
	{"segstore.throttle_wait_us_sum", "us", "lower"},
	{"segstore.unflushed_bytes_max", "bytes", "lower"},
	{"segstore.read_cache_64k_us_p50", "us", "lower"},
	{"segstore.read_lts_1m_us_p50", "us", "lower"},
	{"segstore.catchup_reads", "count", "lower"},
	{"segstore.catchup_read_bytes", "bytes", "higher"},
	{"segstore.read_fanout_mean", "count", "higher"},
	// internal/wal
	{"wal.append_us_p50", "us", "lower"},
	{"wal.append_64k_us_p50", "us", "lower"},
	{"wal.appends", "count", "lower"},
	{"wal.rollovers", "count", "lower"},
	{"wal.truncated_ledgers", "count", "higher"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"wal.self_us_p50", "us", "lower"},
	// internal/bookkeeper
	{"bookkeeper.add_64k_us_p50", "us", "lower"},
	{"bookkeeper.ledger_append_64k_us_p50", "us", "lower"},
	{"bookkeeper.read_entry_us_p50", "us", "lower"},
	{"bookkeeper.add_requests", "count", "lower"},
	{"bookkeeper.self_us_p50", "us", "lower"},
	// internal/blockcache
	{"blockcache.insert_4k_ns_p50", "ns", "lower"},
	{"blockcache.insert_64k_ns_p50", "ns", "lower"},
	{"blockcache.get_64k_ns_p50", "ns", "lower"},
	{"blockcache.hit_ratio", "ratio", "higher"},
	{"blockcache.evictions", "count", "lower"},
	{"blockcache.used_bytes_max", "bytes", "lower"},
	// internal/readindex
	{"readindex.add_ns_p50", "ns", "lower"},
	{"readindex.find_ns_p50", "ns", "lower"},
	{"readindex.lookups", "count", "lower"},
	// internal/readahead
	{"readahead.hit_ratio", "ratio", "higher"},
	{"readahead.useful_ratio", "ratio", "higher"},
	{"readahead.dropped", "count", "lower"},
	{"readahead.buffered_bytes_max", "bytes", "lower"},
	{"readahead.get_ns_p50", "ns", "lower"},
	// internal/lts
	{"lts.flush_us_p50", "us", "lower"},
	{"lts.flushes", "count", "lower"},
	{"lts.flush_bytes", "bytes", "higher"},
	{"lts.bytes_per_flush_mean", "bytes", "higher"},
	{"lts.bytes_written_per_user_byte", "ratio", "lower"},
	{"lts.read_us_p50", "us", "lower"},
	{"lts.fs_write_1m_us_p50", "us", "lower"},
	{"lts.fs_read_1m_us_p50", "us", "lower"},
	// internal/cluster + internal/controller
	{"cluster.set_ns_p50", "ns", "lower"},
	{"cluster.get_ns_p50", "ns", "lower"},
	{"cluster.remote_get_us_p50", "us", "lower"},
	{"controller.create_stream_ms", "ms", "lower"},
	{"controller.get_active_segments_us_p50", "us", "lower"},
	// processes and the generator
	{"proc.build_s", "s", "lower"},
	{"proc.bench_cpu_s", "s", "lower"},
	{"proc.coord_cpu_s", "s", "lower"},
	{"proc.store_cpu_s", "s", "lower"},
	{"proc.bench_rss_mb", "MB", "lower"},
	{"proc.coord_rss_mb", "MB", "lower"},
	{"proc.store_rss_mb", "MB", "lower"},
	{"gen.lag_p99_us", "us", "lower"},
	// workload-level numbers too unsteady to gate (README), with the samples
	// behind the tails; tail.* from the tail reader beside the gated writer,
	// mixed.* from catchup_mixed's second part
	{"tail.write_p95_ms", "ms", "lower"},
	{"tail.write_p99_ms", "ms", "lower"},
	{"tail.write_p999_ms", "ms", "lower"},
	{"tail.write_samples", "count", "higher"},
	{"tail.e2e_p50_ms", "ms", "lower"},
	{"tail.e2e_p95_ms", "ms", "lower"},
	{"tail.e2e_p99_ms", "ms", "lower"},
	{"tail.e2e_p999_ms", "ms", "lower"},
	{"tail.e2e_samples", "count", "higher"},
	{"tail.read_mb_per_s", "MB/s", "higher"},
	{"mixed.write_p50_ms", "ms", "lower"},
	{"mixed.e2e_p50_ms", "ms", "lower"},
	{"mixed.read_mb_per_s", "MB/s", "higher"},
	// the append chain and the tracing itself
	{"chain.write_us_p50", "us", "lower"},
	{"chain.self_sum_us", "us", "lower"},
	{"chain.residual_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics assembles the traced run's per-layer numbers.
func (e *env) layerMetrics() map[string]float64 {
	const us, ns, ms = 1e3, 1.0, 1e6 // span unit sizes in ns
	m := make(map[string]float64, len(layers))
	// Counters are summed over every pass (catchup_mixed's second part is
	// where its reads happen), each from its first window boundary to its
	// last, and set against the events acknowledged in those passes; gauges
	// peak over every boundary. The latency tails are the gated passes'.
	all := e.gated
	if e.mixed != nil {
		all = append(append([]*pass(nil), e.gated...), e.mixed)
	}
	var acked, ackedBytes, mallocs float64
	var cpu [3]float64
	var writeLat, e2eLat []int64
	var last edge
	summed := func(pick func(ed edge) samples) func(id string) float64 {
		return func(id string) float64 {
			var total float64
			for _, p := range all {
				total += delta(pick(p.edges[0]), pick(p.edges[len(p.edges)-1]), id)
			}
			return total
		}
	}
	store := summed(func(ed edge) samples { return ed.store })
	coord := summed(func(ed edge) samples { return ed.coord })
	self := summed(func(ed edge) samples { return ed.self })
	mean := func(reg func(id string) float64, name string) float64 {
		return ratio(reg(name+"_sum"), reg(name+"_count"))
	}
	peak := func(id string) float64 {
		max := 0.0
		for _, p := range all {
			for _, ed := range p.edges {
				max = math.Max(max, ed.store[id])
			}
		}
		return max
	}
	for _, p := range all {
		first := p.edges[0]
		last = p.edges[len(p.edges)-1]
		mallocs += float64(last.mallocs - first.mallocs)
		for i := range cpu {
			cpu[i] += last.cpu[i] - first.cpu[i]
		}
		for w := 1; w <= p.ph.windows(); w++ {
			acked += float64(p.write.win[w].acked)
			ackedBytes += float64(p.write.win[w].bytes)
			if p == e.mixed {
				continue
			}
			writeLat = append(writeLat, p.write.win[w].latNS...)
			if p.tail != nil {
				e2eLat = append(e2eLat, p.tail.win[w].e2eNS...)
			}
		}
	}

	m["client.write_call_us_p50"] = e.tr.p50("client.write_call", us)
	m["client.read_call_us_p50"] = e.tr.p50("client.read_call", us)
	m["client.allocs_per_event"] = ratio(mallocs, acked)
	m["client.batch_events_mean"] = ratio(acked, store("pravega_segstore_ops_total"))
	m["client.batch_fill_pct_mean"] = mean(self, "pravega_client_batch_fill_pct")
	m["client.write_rtt_us_p50"] = quantileOf(last.self, "pravega_client_write_rtt_us", "0.5")
	m["client.prefetches"] = self("pravega_client_prefetches_total")
	m["client.events_read"] = self("pravega_client_events_read_total")

	m["wire.roundtrip_us_p50"] = e.tr.p50("wire.roundtrip", us)
	m["wire.append_100b_us_p50"] = e.tr.p50("wire.append", us)
	m["wire.append_64k_us_p50"] = e.tr.p50("wire.append_64k", us)
	m["wire.append_1m_us_p50"] = e.tr.p50("wire.append_1m", us)
	m["wire.read_64k_us_p50"] = e.tr.p50("wire.read_64k", us)
	m["wire.bookie_add_64k_us_p50"] = e.tr.p50("wire.bookie_add_64k", us)
	m["wire.acks_per_flush_mean"] = mean(store, "pravega_wire_acks_per_flush")
	m["wire.store_requests"] = store("pravega_wire_requests_total")
	m["wire.coord_requests"] = coord("pravega_wire_requests_total")
	m["wire.read_bytes"] = store("pravega_wire_read_bytes_total")

	m["segstore.append_100b_us_p50"] = e.tr.p50("segstore.append", us)
	m["segstore.append_64k_us_p50"] = e.tr.p50("segstore.append_64k", us)
	m["segstore.marshal_frame_ns_per_op"] = e.tr.p50("segstore.marshal_frame", ns) / 256
	m["segstore.unmarshal_frame_ns_per_op"] = e.tr.p50("segstore.unmarshal_frame", ns) / 256
	m["segstore.frame_ops_mean"] = mean(store, "pravega_segstore_frame_ops")
	m["segstore.frame_bytes_mean"] = mean(store, "pravega_segstore_frame_bytes")
	m["segstore.frames"] = store("pravega_segstore_frames_total")
	m["segstore.ops"] = store("pravega_segstore_ops_total")
	m["segstore.apply_us_p50"] = quantileOf(last.store, "pravega_segstore_apply_us", "0.5")
	m["segstore.queue_depth_max"] = peak("pravega_segstore_queue_depth")
	m["segstore.throttle_engaged"] = store("pravega_segstore_throttle_engaged_total")
	m["segstore.throttle_wait_us_sum"] = store("pravega_segstore_throttle_wait_us_sum")
	m["segstore.unflushed_bytes_max"] = peak("pravega_segstore_unflushed_bytes")
	m["segstore.read_cache_64k_us_p50"] = e.tr.p50("segstore.read_cache_64k", us)
	m["segstore.read_lts_1m_us_p50"] = e.tr.p50("segstore.read_lts_1m", us)
	m["segstore.catchup_reads"] = store("pravega_segstore_catchup_reads_total")
	m["segstore.catchup_read_bytes"] = store("pravega_segstore_catchup_read_bytes_total")
	m["segstore.read_fanout_mean"] = mean(store, "pravega_segstore_read_fanout")

	m["wal.append_us_p50"] = quantileOf(last.store, "pravega_wal_append_us", "0.5")
	m["wal.append_64k_us_p50"] = e.tr.p50("wal.append_64k", us)
	m["wal.appends"] = store("pravega_wal_appends_total")
	m["wal.rollovers"] = store("pravega_wal_rollovers_total")
	m["wal.truncated_ledgers"] = store("pravega_wal_truncated_ledgers_total")
	m["wal.bytes_per_user_byte"] = ratio(store("pravega_segstore_frame_bytes_sum"), ackedBytes)

	m["bookkeeper.add_64k_us_p50"] = e.tr.p50("bookkeeper.add_64k", us)
	m["bookkeeper.ledger_append_64k_us_p50"] = e.tr.p50("bookkeeper.ledger_append_64k", us)
	m["bookkeeper.read_entry_us_p50"] = e.tr.p50("bookkeeper.read_entry", us)
	m["bookkeeper.add_requests"] = coord("pravega_wire_requests_total")

	m["blockcache.insert_4k_ns_p50"] = e.tr.p50("blockcache.insert_4k", ns)
	m["blockcache.insert_64k_ns_p50"] = e.tr.p50("blockcache.insert_64k", ns)
	m["blockcache.get_64k_ns_p50"] = e.tr.p50("blockcache.get_64k", ns)
	hits, misses := store("pravega_blockcache_hits_total"), store("pravega_blockcache_misses_total")
	m["blockcache.hit_ratio"] = ratio(hits, hits+misses)
	m["blockcache.evictions"] = store("pravega_blockcache_evictions_total")
	m["blockcache.used_bytes_max"] = peak("pravega_blockcache_used_bytes")

	m["readindex.add_ns_p50"] = e.tr.p50("readindex.add", ns)
	m["readindex.find_ns_p50"] = e.tr.p50("readindex.find", ns)
	m["readindex.lookups"] = store("pravega_readindex_lookups_total")

	raHits, raMisses := store("pravega_readahead_hits_total"), store("pravega_readahead_misses_total")
	m["readahead.hit_ratio"] = ratio(raHits, raHits+raMisses)
	m["readahead.useful_ratio"] = ratio(store("pravega_readahead_hit_bytes_total"), store("pravega_readahead_fetched_bytes_total"))
	m["readahead.dropped"] = store("pravega_readahead_dropped_total")
	m["readahead.buffered_bytes_max"] = peak("pravega_readahead_buffered_bytes")
	m["readahead.get_ns_p50"] = e.tr.p50("readahead.get", ns)

	m["lts.flush_us_p50"] = quantileOf(last.store, "pravega_lts_flush_us", "0.5")
	m["lts.flushes"] = store("pravega_lts_flushes_total")
	m["lts.flush_bytes"] = store("pravega_lts_flush_bytes_total")
	m["lts.bytes_per_flush_mean"] = ratio(m["lts.flush_bytes"], m["lts.flushes"])
	m["lts.bytes_written_per_user_byte"] = ratio(m["lts.flush_bytes"], ackedBytes)
	m["lts.read_us_p50"] = quantileOf(last.store, "pravega_lts_read_us", "0.5")
	m["lts.fs_write_1m_us_p50"] = e.tr.p50("lts.fs_write_1m", us)
	m["lts.fs_read_1m_us_p50"] = e.tr.p50("lts.fs_read_1m", us)

	m["cluster.set_ns_p50"] = e.tr.p50("cluster.set", ns)
	m["cluster.get_ns_p50"] = e.tr.p50("cluster.get", ns)
	m["cluster.remote_get_us_p50"] = e.tr.p50("cluster.remote_get", us)
	m["controller.create_stream_ms"] = e.tr.p50("controller.create_stream", ms)
	m["controller.get_active_segments_us_p50"] = e.tr.p50("controller.get_active_segments", us)

	m["proc.build_s"] = e.cfg.buildS
	pids := []int{os.Getpid(), e.d.coord.pid(), e.d.store.pid()}
	for i, p := range []string{"bench", "coord", "store"} {
		m["proc."+p+"_cpu_s"] = cpu[i]
		m["proc."+p+"_rss_mb"], _ = peakRSSMB(pids[i]) // 0 when the process is gone, which the failed operations report
	}

	// The ungated percentiles as the untraced windows' median, like the
	// gated ones; the rarer tails over every sample of the run.
	untraced := e.endToEndMetrics(false)
	u := e.ungatedMetrics()
	wl, el := sortedCopy(writeLat, 1/ms), sortedCopy(e2eLat, 1/ms)
	// A tail with fewer than ten samples beyond it is not reported.
	rare := func(sorted []float64, p float64) float64 {
		if highestSupported(len(sorted)) < p {
			return 0
		}
		return percentile(sorted, p)
	}
	m["tail.write_p95_ms"] = u["write_p95_ms"]
	m["tail.write_p99_ms"] = rare(wl, 0.99)
	m["tail.write_p999_ms"] = rare(wl, 0.999)
	m["tail.write_samples"] = float64(len(wl))
	m["tail.e2e_p50_ms"] = u["e2e_p50_ms"]
	m["tail.e2e_p95_ms"] = u["e2e_p95_ms"]
	m["tail.e2e_p99_ms"] = rare(el, 0.99)
	m["tail.e2e_p999_ms"] = rare(el, 0.999)
	m["tail.e2e_samples"] = float64(len(el))
	m["tail.read_mb_per_s"] = u["read_mb_per_s"]
	m["mixed.write_p50_ms"] = u["mixed.write_p50_ms"]
	m["mixed.e2e_p50_ms"] = u["mixed.e2e_p50_ms"]
	m["mixed.read_mb_per_s"] = u["mixed.read_mb_per_s"]
	m["gen.lag_p99_us"] = u["gen.lag_p99_us"]

	// The append chain. Each layer's self time is its span's median minus
	// the median of the span it contains; the bookkeeper's two spans are one
	// layer. Telescoped, the selves add up to the outermost span unless a
	// child measured slower than its parent (clamped to 0), and what is left
	// against the untraced windows' write_p50_ms is the residual.
	chain := []struct{ layer, span string }{
		{"client", ""}, // the workload's own WriteEvent -> ack
		{"wire", "wire.append"},
		{"segstore", "segstore.append"},
		{"wal", "wal.append"},
		{"bookkeeper", "bookkeeper.ledger_append"},
	}
	write := percentile(sortedCopy(writeLat, 1/us), 0.5)
	m["chain.write_us_p50"] = write
	spanUS := func(i int) float64 {
		if i == 0 {
			return write
		}
		if i >= len(chain) {
			return 0
		}
		return e.tr.p50(chain[i].span, us)
	}
	var sum float64
	for i, c := range chain {
		selfUS := math.Max(0, spanUS(i)-spanUS(i+1))
		m[c.layer+".self_us_p50"] = selfUS
		sum += selfUS
	}
	m["chain.self_sum_us"] = sum
	m["chain.residual_pct"] = 100 * ratio(untraced["write_p50_ms"]*1e3-sum, untraced["write_p50_ms"]*1e3)

	// Tracing overhead: how much worse the headline metric is in the windows
	// that recorded spans than in the windows of the same run that did not.
	traced := e.endToEndMetrics(true)
	off, on := untraced[e.wl.headline], traced[e.wl.headline]
	if lowerIsBetter(e.wl.headline) {
		m["trace.overhead_pct"] = 100 * ratio(on-off, off)
	} else {
		m["trace.overhead_pct"] = 100 * ratio(off-on, off)
	}
	return m
}
