package pravega

import (
	"context"
	"fmt"

	"github.com/pravega-go/pravega/internal/controller"
)

// StreamManager consolidates stream administration behind one accessor with
// context-first signatures: every verb takes a context.Context as its first
// parameter and honors cancellation (see DESIGN.md §"Context convention").
// Obtain it with System.Streams.
type StreamManager struct {
	sys *System
}

// Streams returns the stream administration API.
func (s *System) Streams() *StreamManager { return &StreamManager{sys: s} }

// runCtx executes one blocking control-plane call under ctx: cancellation
// abandons the wait and returns ctx.Err(). The call itself still completes
// on the server — admin verbs are idempotent or versioned, so a repeat
// after cancellation is safe.
func runCtx(ctx context.Context, f func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runCtxVal is runCtx for calls returning a value. The result travels
// through the channel — never through a captured variable, which would race
// with the caller when cancellation abandons the wait.
func runCtxVal[T any](ctx context.Context, f func() (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	type res struct {
		v   T
		err error
	}
	done := make(chan res, 1)
	go func() {
		v, err := f()
		done <- res{v, err}
	}()
	select {
	case r := <-done:
		return r.v, r.err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// CreateScope registers a stream namespace.
func (m *StreamManager) CreateScope(ctx context.Context, scope string) error {
	return runCtx(ctx, func() error { return convertErr(m.sys.client.CreateScope(scope)) })
}

// Create creates a stream.
func (m *StreamManager) Create(ctx context.Context, cfg StreamConfig) error {
	return runCtx(ctx, func() error {
		return convertErr(m.sys.client.CreateStream(controller.StreamConfig{
			Scope:           cfg.Scope,
			Name:            cfg.Name,
			InitialSegments: cfg.InitialSegments,
			Scaling:         toInternalScaling(cfg.Scaling),
			Retention: controller.RetentionPolicy{
				Type:          controller.RetentionType(orDefault(string(cfg.Retention.Type), string(RetentionNone))),
				LimitBytes:    cfg.Retention.LimitBytes,
				LimitDuration: cfg.Retention.LimitDuration,
			},
		}))
	})
}

// Seal makes a stream read-only: every active segment is sealed (the
// tail-drain — in-flight appends resolve before the seal lands) and no
// further appends are accepted anywhere on the stream.
func (m *StreamManager) Seal(ctx context.Context, scope, stream string) error {
	return runCtx(ctx, func() error { return convertErr(m.sys.client.SealStream(scope, stream)) })
}

// Delete removes a sealed stream and all its segments.
func (m *StreamManager) Delete(ctx context.Context, scope, stream string) error {
	return runCtx(ctx, func() error { return convertErr(m.sys.client.DeleteStream(scope, stream)) })
}

// Scale manually splits one active segment into factor successors
// (auto-scaling does this from load; the manual form serves admin tooling).
func (m *StreamManager) Scale(ctx context.Context, scope, stream string, segmentNumber int64, factor int) error {
	return runCtx(ctx, func() error {
		segs, err := m.sys.client.GetActiveSegments(scope, stream)
		if err != nil {
			return convertErr(err)
		}
		for _, sr := range segs {
			if sr.ID.Number == segmentNumber {
				return convertErr(m.sys.client.Scale(scope, stream, []int64{segmentNumber}, sr.KeyRange.Split(factor)))
			}
		}
		return fmt.Errorf("pravega: segment %d is not active in %s/%s", segmentNumber, scope, stream)
	})
}

// Truncate drops the whole stream history up to "now": it records the
// current tail as a stream cut and truncates there.
func (m *StreamManager) Truncate(ctx context.Context, scope, stream string) error {
	return runCtx(ctx, func() error {
		segs, err := m.sys.client.GetActiveSegments(scope, stream)
		if err != nil {
			return convertErr(err)
		}
		cut := make(controller.StreamCut, len(segs))
		for _, sr := range segs {
			info, err := m.sys.data.GetInfo(sr.ID.QualifiedName())
			if err != nil {
				return convertErr(err)
			}
			cut[sr.ID.Number] = info.Length
		}
		return convertErr(m.sys.client.TruncateStream(scope, stream, cut))
	})
}

// UpdatePolicies replaces a stream's scaling and retention policies at
// runtime (§2.1). A nil policy leaves that policy unchanged.
func (m *StreamManager) UpdatePolicies(ctx context.Context, scope, stream string, scaling *ScalingPolicy, retention *RetentionPolicy) error {
	return runCtx(ctx, func() error {
		var sp *controller.ScalingPolicy
		if scaling != nil {
			v := toInternalScaling(*scaling)
			sp = &v
		}
		var rp *controller.RetentionPolicy
		if retention != nil {
			rp = &controller.RetentionPolicy{
				Type:          controller.RetentionType(retention.Type),
				LimitBytes:    retention.LimitBytes,
				LimitDuration: retention.LimitDuration,
			}
		}
		return convertErr(m.sys.client.UpdateStreamPolicies(scope, stream, sp, rp))
	})
}

// SegmentCount reports the stream's current parallelism.
func (m *StreamManager) SegmentCount(ctx context.Context, scope, stream string) (int, error) {
	return runCtxVal(ctx, func() (int, error) {
		n, err := m.sys.client.SegmentCount(scope, stream)
		return n, convertErr(err)
	})
}
