package faultinject

import (
	"fmt"

	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/segstore"
)

// maxCacheEntryBytes is the size at which a segment container closes a cache
// entry, stated here independently of the container's own constant.
const maxCacheEntryBytes = 256 << 10

// CheckContainer validates the recovery invariants §4.3–§4.4 promise, for
// every segment the container holds:
//
//  1. Chunk metadata is contiguous from offset 0 and non-overlapping.
//  2. storageLength == Σ chunk.Length (the tiered watermark is exactly the
//     chunk cover).
//  3. Every recorded chunk exists in LTS with at least its recorded length
//     (metadata never claims bytes storage does not have).
//  4. storageLength ≤ length: tiering never invents data.
//  5. The un-tiered queue begins exactly at the storage watermark — no gap
//     (data loss) and no overlap (duplication) between tiers.
//  6. WAL truncation never released an entry still needed to recover
//     un-tiered data.
//  7. No cached read-index entry is longer than the container's bound, none
//     overlaps another, and together they hold no more bytes than the
//     segment has (§4.2: the cache is a run of short entries, whichever of
//     append, merge or recovery replay put the bytes there).
//
// The check runs under Container.Quiesce, so it observes the metadata, the
// un-tiered queue and the WAL watermark as one consistent cut between
// tiering rounds. A Pending chunk entry (aborted round) is tolerated only
// in last position with zero committed coverage.
func CheckContainer(c *segstore.Container, store lts.ChunkStorage) error {
	var err error
	c.Quiesce(func() { err = checkQuiesced(c, store) })
	return err
}

func checkQuiesced(c *segstore.Container, store lts.ChunkStorage) error {
	truncatedBefore := c.WALTruncatedBefore()
	for name, d := range c.DebugState() {
		var covered int64
		for i, ch := range d.Chunks {
			if ch.Pending {
				if i != len(d.Chunks)-1 || ch.Length != 0 {
					return fmt.Errorf("faultinject: %s: pending chunk %s not a zero-length tail entry", name, ch.Name)
				}
				continue
			}
			if ch.StartOffset != covered {
				return fmt.Errorf("faultinject: %s: chunk %s starts at %d, want %d (overlap or gap)",
					name, ch.Name, ch.StartOffset, covered)
			}
			if ch.Length < 0 {
				return fmt.Errorf("faultinject: %s: chunk %s has negative length %d", name, ch.Name, ch.Length)
			}
			actual, err := store.Length(ch.Name)
			if err != nil {
				return fmt.Errorf("faultinject: %s: chunk %s recorded with %d bytes but unreadable: %w",
					name, ch.Name, ch.Length, err)
			}
			if actual < ch.Length {
				return fmt.Errorf("faultinject: %s: chunk %s records %d bytes, LTS holds only %d",
					name, ch.Name, ch.Length, actual)
			}
			covered += ch.Length
		}
		if covered != d.StorageLength {
			return fmt.Errorf("faultinject: %s: chunks cover %d bytes, storageLength is %d",
				name, covered, d.StorageLength)
		}
		if d.StorageLength > d.Length {
			return fmt.Errorf("faultinject: %s: storageLength %d exceeds length %d", name, d.StorageLength, d.Length)
		}
		if d.HasUnflushed {
			if d.UnflushedStart != d.StorageLength {
				return fmt.Errorf("faultinject: %s: un-tiered queue starts at %d, storage watermark is %d",
					name, d.UnflushedStart, d.StorageLength)
			}
			if d.LowestUnflushedAddr.LedgerSeq < truncatedBefore {
				return fmt.Errorf("faultinject: %s: un-tiered data needs WAL ledger seq %d, but truncation released everything before %d",
					name, d.LowestUnflushedAddr.LedgerSeq, truncatedBefore)
			}
		} else if d.StorageLength != d.Length {
			return fmt.Errorf("faultinject: %s: empty un-tiered queue but storageLength %d != length %d (lost tail)",
				name, d.StorageLength, d.Length)
		}
		if d.MaxCacheEntryBytes > maxCacheEntryBytes {
			return fmt.Errorf("faultinject: %s: a cache entry holds %d bytes, the bound is %d",
				name, d.MaxCacheEntryBytes, maxCacheEntryBytes)
		}
		if d.ReadIndexErr != nil {
			return fmt.Errorf("faultinject: %s: %w", name, d.ReadIndexErr)
		}
		if d.CacheBytes > d.Length-d.StartOffset+maxCacheEntryBytes {
			return fmt.Errorf("faultinject: %s: %d bytes cached in %d entries, segment holds [%d, %d)",
				name, d.CacheBytes, d.CacheEntries, d.StartOffset, d.Length)
		}
	}
	return nil
}
