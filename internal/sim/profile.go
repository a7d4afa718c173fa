package sim

import "time"

// Profile bundles the device parameters of the paper's AWS deployment
// (Table 1) scaled down by Scale so that experiments run on small machines.
// Throughput ratios between systems are invariant under Scale; latency
// constants are kept in real milliseconds because they sit on the figures'
// axes.
type Profile struct {
	// Scale divides all bandwidths and target workload rates.
	Scale float64

	// Disk is the journal/log NVMe drive (one per server, Table 1).
	Disk DiskConfig
	// ClientLink is the client<->server network path.
	ClientLink LinkConfig
	// ReplicaLink is the server<->server (replication) path.
	ReplicaLink LinkConfig
	// LTS is the long-term storage model (EFS for Pravega, S3 for Pulsar —
	// the paper measured near-identical transfer rates for both, §5.7).
	LTS ObjectStoreConfig
}

// AWSProfile returns the modelled testbed of Table 1 divided by scale.
// With scale=1 the numbers are the paper's: ~800 MB/s sync sequential
// writes, ~900 MB/s page-cache drain, ~160 MB/s per LTS stream.
func AWSProfile(scale float64) Profile {
	if scale <= 0 {
		scale = 1
	}
	s := func(v float64) float64 { return v / scale }
	return Profile{
		Scale: scale,
		Disk: DiskConfig{
			SyncBandwidth:      s(800e6),
			SyncLatency:        600 * time.Microsecond,
			PageCacheBandwidth: s(900e6),
			DirtyLimit:         int64(s(512e6)),
			SeekPenalty:        4 * time.Millisecond,
		},
		ClientLink: LinkConfig{
			Latency:   350 * time.Microsecond,
			Bandwidth: s(1.2e9), // ~10 Gbit/s per client VM
		},
		ReplicaLink: LinkConfig{
			Latency:   200 * time.Microsecond,
			Bandwidth: s(1.2e9),
		},
		LTS: ObjectStoreConfig{
			PerStreamBandwidth: s(160e6),
			AggregateBandwidth: s(1.0e9),
			OpLatency:          2 * time.Millisecond,
		},
	}
}

// ScaleBytes converts a paper-scale byte rate (bytes/s) to the profile's
// scaled rate.
func (p Profile) ScaleBytes(paperBytesPerSec float64) float64 {
	return paperBytesPerSec / p.Scale
}
