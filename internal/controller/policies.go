package controller

import (
	"time"

	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segment"
)

// StartPolicyLoops launches the auto-scaling feedback loop (§3.1), the
// retention loop (§2.1), and the transaction reaper (§3.2) with the given
// evaluation interval.
func (c *Controller) StartPolicyLoops(interval time.Duration) {
	c.wg.Add(3)
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				c.evaluateScaling()
			}
		}
	}()
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				c.evaluateRetention()
			}
		}
	}()
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				c.evaluateTxns()
			}
		}
	}()
}

// scaleDecision is one planned scaling event.
type scaleDecision struct {
	scope, name string
	seal        []int64
	newRanges   []keyspace.Range
}

// mergeThreshold multiplies TargetRate: two adjacent segments both under
// TargetRate×mergeThreshold merge. A split needs no such factor — a sustained
// rate above the policy's target *is* the trigger, as in §5.8.
const mergeThreshold = 0.5

// evaluateScaling closes the control-plane/data-plane feedback loop: it
// reads per-segment ingest rates reported by the segment stores and splits
// hot segments / merges adjacent cold segments according to each stream's
// policy (§3.1).
func (c *Controller) evaluateScaling() {
	reports := c.cfg.Data.LoadReports()
	load := make(map[string]float64, len(reports))
	full := make(map[string]bool, len(reports))
	loadBytes := make(map[string]float64, len(reports))
	for _, r := range reports {
		load[r.Segment] = r.EventsPerSec
		loadBytes[r.Segment] = r.BytesPerSec
		full[r.Segment] = r.WindowFull
	}

	var decisions []scaleDecision
	c.mu.Lock()
	for _, st := range c.streams {
		pol := st.cfg.Scaling
		if pol.Type == ScalingFixed || st.sealed || st.deleted {
			continue
		}
		if time.Since(st.lastScale) < c.cfg.ScaleCooldown {
			continue
		}
		rate := func(qn string) (float64, bool) {
			if pol.Type == ScalingByEventRate {
				return load[qn], full[qn]
			}
			return loadBytes[qn], full[qn]
		}
		segs := st.activeSegments()
		// Scale-up: split the hottest segment above target.
		var hot *SegmentWithRange
		var hotRate float64
		for i := range segs {
			r, isFull := rate(segs[i].ID.QualifiedName())
			if !isFull {
				continue
			}
			if r > pol.TargetRate && r > hotRate {
				hot = &segs[i]
				hotRate = r
			}
		}
		if hot != nil {
			factor := pol.ScaleFactor
			// Split proportionally to the overload so large spikes converge
			// in fewer scale events.
			if over := int(hotRate / pol.TargetRate); over > factor {
				factor = over
			}
			if factor > 8 {
				factor = 8
			}
			decisions = append(decisions, scaleDecision{
				scope:     st.cfg.Scope,
				name:      st.cfg.Name,
				seal:      []int64{hot.ID.Number},
				newRanges: hot.KeyRange.Split(factor),
			})
			continue // one scale event per stream per tick
		}
		// Scale-down: merge the first adjacent cold pair.
		if len(segs) > pol.MinSegments {
			for i := 0; i+1 < len(segs); i++ {
				a, b := segs[i], segs[i+1]
				if !a.KeyRange.Adjacent(b.KeyRange) {
					continue
				}
				ra, fa := rate(a.ID.QualifiedName())
				rb, fb := rate(b.ID.QualifiedName())
				if fa && fb &&
					ra < pol.TargetRate*mergeThreshold &&
					rb < pol.TargetRate*mergeThreshold {
					merged, err := keyspace.Merge(a.KeyRange, b.KeyRange)
					if err != nil {
						continue
					}
					decisions = append(decisions, scaleDecision{
						scope:     st.cfg.Scope,
						name:      st.cfg.Name,
						seal:      []int64{a.ID.Number, b.ID.Number},
						newRanges: []keyspace.Range{merged},
					})
					break
				}
			}
		}
	}
	c.mu.Unlock()

	for _, d := range decisions {
		// Scale re-validates under the lock; races with manual scaling
		// surface as ErrBadScale and are skipped this tick.
		_ = c.Scale(d.scope, d.name, d.seal, d.newRanges)
	}
}

// evaluateRetention records a stream cut at the current tail and truncates
// according to each stream's retention policy.
func (c *Controller) evaluateRetention() {
	type job struct {
		scope, name string
		active      []segment.ID
		policy      RetentionPolicy
	}
	var jobs []job
	c.mu.Lock()
	for _, st := range c.streams {
		if st.cfg.Retention.Type == RetentionNone || st.deleted {
			continue
		}
		j := job{scope: st.cfg.Scope, name: st.cfg.Name, policy: st.cfg.Retention}
		for _, n := range st.active {
			j.active = append(j.active, st.segments[n].ID)
		}
		jobs = append(jobs, j)
	}
	c.mu.Unlock()

	for _, j := range jobs {
		cut := make(StreamCut, len(j.active))
		for _, id := range j.active {
			info, err := c.cfg.Data.GetInfo(id.QualifiedName())
			if err != nil {
				continue
			}
			cut[id.Number] = info.Length
		}
		key := scopedName(j.scope, j.name)
		c.mu.Lock()
		st, ok := c.streams[key]
		if !ok {
			c.mu.Unlock()
			continue
		}
		st.cuts = append(st.cuts, recordedCut{at: time.Now(), cut: cut})
		var truncateAt *recordedCut
		switch j.policy.Type {
		case RetentionBySize:
			if size := c.streamSizeLocked(st); size > j.policy.LimitBytes && len(st.cuts) > 1 {
				truncateAt = &st.cuts[0]
				st.cuts = st.cuts[1:]
			}
		case RetentionByTime:
			// Truncate at the newest cut older than the retention window.
			idx := -1
			for i, rc := range st.cuts {
				if time.Since(rc.at) > j.policy.LimitDuration {
					idx = i
				}
			}
			if idx >= 0 {
				truncateAt = &st.cuts[idx]
				st.cuts = st.cuts[idx+1:]
			}
		case RetentionNone:
			// Unreachable: filtered above.
		}
		c.mu.Unlock()
		if truncateAt != nil {
			_ = c.TruncateStream(j.scope, j.name, truncateAt.cut)
		}
	}
}

// streamSizeLocked estimates retained bytes: segment lengths minus the
// truncated head. Caller holds c.mu.
func (c *Controller) streamSizeLocked(st *streamState) int64 {
	var total int64
	for n, rec := range st.segments {
		info, err := c.cfg.Data.GetInfo(rec.ID.QualifiedName())
		if err != nil {
			continue
		}
		total += info.Length - info.StartOffset
		_ = n
	}
	return total
}

// SegmentCount returns the number of active segments (figures, tests).
func (c *Controller) SegmentCount(scope, name string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.stream(scope, name)
	if err != nil {
		return 0, err
	}
	return len(st.active), nil
}
