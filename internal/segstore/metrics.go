package segstore

import "github.com/pravega-go/pravega/internal/obs"

// Process-wide series for the segment store data plane. Handles are resolved
// once at package init; every container instance shares them, so the series
// aggregate across containers (per-container breakdowns remain available via
// Container.Stats). Updates are single atomic operations — safe on the
// append hot path.
var (
	mQueueDepth = obs.Default().Gauge("pravega_segstore_queue_depth",
		"Operations waiting in container op queues (all containers)")
	mFrameOps = obs.Default().Histogram("pravega_segstore_frame_ops",
		"Operations batched into one WAL data frame")
	mFrameBytes = obs.Default().Histogram("pravega_segstore_frame_bytes",
		"Serialized size of one WAL data frame")
	mApplyUs = obs.Default().Histogram("pravega_segstore_apply_us",
		"Frame latency from WAL submission to in-memory apply, microseconds")
	mFramesApplied = obs.Default().Counter("pravega_segstore_frames_total",
		"Data frames durably applied")
	mOpsApplied = obs.Default().Counter("pravega_segstore_ops_total",
		"Operations durably applied")
	mAppendBytes = obs.Default().Counter("pravega_segstore_append_bytes_total",
		"Append payload bytes durably applied")
	mThrottleEngaged = obs.Default().Counter("pravega_segstore_throttle_engaged_total",
		"Times an appender blocked on the tiering-backlog throttle")
	mThrottleUs = obs.Default().Histogram("pravega_segstore_throttle_wait_us",
		"Time appenders spent blocked on the throttle, microseconds")
	mUnflushedBytes = obs.Default().Gauge("pravega_segstore_unflushed_bytes",
		"Applied bytes not yet tiered to long-term storage (all containers)")

	mReadLookups = obs.Default().Counter("pravega_readindex_lookups_total",
		"Read-index lookups served on the read path")
	mCacheHits = obs.Default().Counter("pravega_blockcache_hits_total",
		"Reads served from the block cache")
	mCacheMisses = obs.Default().Counter("pravega_blockcache_misses_total",
		"Reads that fell through to LTS or the unflushed queue")
	mCacheEvictions = obs.Default().Counter("pravega_blockcache_evictions_total",
		"Cache entries evicted to make room (bytes already safe in LTS)")

	mReadFanout = obs.Default().Histogram("pravega_segstore_read_fanout",
		"Parallel LTS chunk reads issued for one historical read")
	mLTSReadUs = obs.Default().Histogram("pravega_lts_read_us",
		"Latency of one scatter-gather LTS read, microseconds")
	mCatchupReads = obs.Default().Counter("pravega_segstore_catchup_reads_total",
		"Historical reads served from long-term storage or the readahead buffer")
	mCatchupReadBytes = obs.Default().Counter("pravega_segstore_catchup_read_bytes_total",
		"Bytes served to historical (catch-up) readers")

	mLTSFlushes = obs.Default().Counter("pravega_lts_flushes_total",
		"Aggregated segment batches written to long-term storage")
	mLTSFlushBytes = obs.Default().Counter("pravega_lts_flush_bytes_total",
		"Bytes tiered to long-term storage")
	mLTSFlushUs = obs.Default().Histogram("pravega_lts_flush_us",
		"Latency of one segment batch flush to LTS, microseconds")
	mFlushReconciledBytes = obs.Default().Counter("pravega_lts_reconciled_bytes_total",
		"Bytes found already in LTS and adopted instead of re-written (partial writes, orphan chunks after a crash)")
	mLTSChunkDeleteFailures = obs.Default().Counter("pravega_lts_chunk_delete_failures_total",
		"Chunks of a deleted segment whose LTS delete failed; the chunk stays behind as an orphan")
	mWALTruncateErrors = obs.Default().Counter("pravega_segstore_wal_truncate_errors_total",
		"WAL truncation attempts that failed and will be retried")
)
