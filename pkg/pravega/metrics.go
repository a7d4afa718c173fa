package pravega

import "github.com/pravega-go/pravega/internal/obs"

// Process-wide series for the client library (writers and readers in this
// process).
var (
	mClientEventsWritten = obs.Default().Counter("pravega_client_events_written_total",
		"Events submitted through WriteEvent")
	mClientEventsRead = obs.Default().Counter("pravega_client_events_read_total",
		"Events delivered by ReadNextEvent")
	mClientRTTUs = obs.Default().Histogram("pravega_client_write_rtt_us",
		"Append batch round-trip time, microseconds")
	mClientBatchFillPct = obs.Default().Histogram("pravega_client_batch_fill_pct",
		"Batch size at send as a percentage of MaxBatchSize")
	mClientRebalances = obs.Default().Counter("pravega_client_rebalances_total",
		"Reader group rebalance passes executed")
	mClientPrefetches = obs.Default().Counter("pravega_client_prefetches_total",
		"Fetches issued while an earlier batch of the same segment still waits for the consumer")
)
