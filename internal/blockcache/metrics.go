package blockcache

import "github.com/pravega-go/pravega/internal/obs"

// mUsedBytes tracks occupied cache bytes across every cache instance; each
// Cache contributes deltas from its single accounting point (addUsed).
var mUsedBytes = obs.Default().Gauge("pravega_blockcache_used_bytes",
	"Bytes currently held in block caches (all instances)")

// mReadBytes counts the bytes ReadAt and Get copied out of cache blocks: a
// read that costs more than it returns shows as this growing faster than
// the bytes served.
var mReadBytes = obs.Default().Counter("pravega_blockcache_read_bytes_total",
	"Bytes copied out of block-cache blocks by reads (all instances)")
