package wire

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/segstore"
)

// plane is the ServerConfig backend a request needs; a node that lacks it
// answers the request with an error.
type plane uint8

const (
	planeData plane = iota
	planeCtrl
	planeCoord
	planeBookies
	planeInfo
)

// served names plane p and reports whether this node's config carries it.
func (s *Server) served(p plane) (string, bool) {
	switch p {
	case planeData:
		return "data", s.cfg.Data != nil
	case planeCtrl:
		return "control", s.cfg.Ctrl != nil
	case planeCoord:
		return "coord", s.cfg.Coord != nil
	case planeBookies:
		return "bookie", s.cfg.Bookies != nil
	default: // planeInfo
		return "cluster info", s.cfg.Placement != nil
	}
}

// startFunc is a row's entry point, called on the read loop. It decodes
// body — the message's own buffer, which a decoded payload aliases and
// carries on — and returns the call that computes the reply, which the
// loop runs on a goroutine of its own: replies may overtake, and a call that blocks (a tail read, a watch) waits until its
// connection ends at the latest. An inline start answers through c itself
// and returns nil: it only enqueues, so the loop's call order is the
// connection's FIFO order into the container's applier (appends) and the
// bookie's group commit (adds), and the completion delivers itself into the
// reply queue — no goroutine or channel per request.
type startFunc func(c *srvConn, id uint64, body []byte) (func(context.Context) Reply, error)

type handler struct {
	plane plane
	start startFunc
}

// on adapts a typed handler to a row: the one place request bodies are
// decoded for handlers, by the rule in decodeBody.
func on[Req any](fn func(*Server, *Req) Reply) startFunc {
	return onCtx(func(_ context.Context, s *Server, req *Req) Reply { return fn(s, req) })
}

// onCtx is on for handlers that may block: ctx ends with the connection.
func onCtx[Req any](fn func(context.Context, *Server, *Req) Reply) startFunc {
	return func(c *srvConn, _ uint64, body []byte) (func(context.Context) Reply, error) {
		req := new(Req)
		if err := decodeBody(body, req); err != nil {
			return nil, err
		}
		return func(ctx context.Context) Reply { return fn(ctx, c.srv, req) }, nil
	}
}

// record answers with a control-plane record — a shape another package
// owns, carried encoded (encodeBody) in the envelope's Data — or with err.
func record(v any, count int, err error) Reply {
	if err != nil {
		return errReply(err, Reply{})
	}
	data, _, err := encodeBody(nil, nil, v) // a record has no payload
	return errReply(err, Reply{Data: data, Count: count})
}

// count answers with a bare number, or with err.
func count(n int, err error) Reply { return errReply(err, Reply{Count: n}) }

// offset answers with a bare position (length, event number, id), or err.
func offset(n int64, err error) Reply { return errReply(err, Reply{Offset: n}) }

// done answers an operation that returns nothing but its error.
func done(err error) Reply { return errReply(err, Reply{}) }

// handlerFor returns t's row, nil for a type that is not a request.
func handlerFor(t MessageType) *handler {
	if int(t) < len(handlers) && handlers[t].start != nil {
		return &handlers[t]
	}
	return nil
}

// handlers is the protocol table, one row per request type: adding a
// message is adding its MessageType constant and its row.
var handlers = [msgEnd]handler{
	// Segment store.
	MsgAppend: {planeData, startAppend},
	// A tail read long-polls up to its wait: a client that stops waiting
	// abandons the reply, and the connection's end stops the read.
	MsgRead: {planeData, onCtx(func(ctx context.Context, s *Server, r *ReadReq) Reply {
		res, err := s.cfg.Data.ReadCtx(ctx, r.Segment, r.Offset, r.MaxBytes, time.Duration(r.WaitMS)*time.Millisecond)
		if err != nil {
			return done(err)
		}
		mReads.Inc()
		mReadBytes.Add(int64(len(res.Data)))
		return Reply{Data: res.Data, Offset: res.Offset, EOS: res.EndOfSegment}
	})},
	MsgCreateSegment: {planeData, on(func(s *Server, r *SegmentReq) Reply {
		return done(s.cfg.Data.CreateSegment(r.Segment))
	})},
	MsgSeal: {planeData, on(func(s *Server, r *SegmentReq) Reply {
		return offset(s.cfg.Data.SealSegment(r.Segment))
	})},
	MsgTruncate: {planeData, on(func(s *Server, r *SegmentReq) Reply {
		return done(s.cfg.Data.TruncateSegment(r.Segment, r.Offset))
	})},
	MsgDeleteSegment: {planeData, on(func(s *Server, r *SegmentReq) Reply {
		return done(s.cfg.Data.DeleteSegment(r.Segment))
	})},
	MsgGetInfo: {planeData, on(func(s *Server, r *SegmentReq) Reply {
		info, err := s.cfg.Data.GetInfo(r.Segment)
		return record(info, 0, err)
	})},
	MsgWriterState: {planeData, on(func(s *Server, r *SegmentReq) Reply {
		return offset(s.cfg.Data.WriterState(r.Segment, r.WriterID))
	})},
	MsgMergeSegments: {planeData, on(func(s *Server, r *MergeReq) Reply {
		return offset(s.cfg.Data.MergeSegment(r.Target, r.Source))
	})},
	MsgLoadReport: {planeData, on(func(s *Server, _ *struct{}) Reply {
		loads, err := s.cfg.Data.LoadReport()
		return record(loads, len(loads), err)
	})},

	// Placement, answered from the server's own placement.Source.
	MsgClusterInfo: {planeInfo, on(func(s *Server, _ *struct{}) Reply {
		snap, err := s.cfg.Placement.Snapshot()
		return record(snap, 0, err)
	})},
	MsgWatchEpoch: {planeInfo, onCtx(func(ctx context.Context, s *Server, r *EpochReq) Reply {
		ctx, cancel := context.WithTimeout(ctx, coordWatchMaxWait)
		defer cancel()
		return offset(s.cfg.Placement.WaitEpoch(r.Known, ctx.Done()))
	})},

	// Controller.
	MsgCreateScope: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		return done(s.cfg.Ctrl.CreateScope(r.Scope))
	})},
	MsgCreateStream: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		cfg := controller.StreamConfig{Scope: r.Scope, Name: r.Stream, InitialSegments: r.Segments}
		if r.Scaling != nil {
			cfg.Scaling = *r.Scaling
		}
		if r.Retention != nil {
			cfg.Retention = *r.Retention
		}
		return done(s.cfg.Ctrl.CreateStream(cfg))
	})},
	MsgActiveSegments: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		segs, err := s.cfg.Ctrl.GetActiveSegments(r.Scope, r.Stream)
		return record(segs, len(segs), err)
	})},
	MsgSuccessors: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		succ, err := s.cfg.Ctrl.GetSuccessors(r.Scope, r.Stream, r.Segment)
		return record(succ, len(succ), err)
	})},
	MsgHeadSegments: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		heads, err := s.cfg.Ctrl.GetHeadSegments(r.Scope, r.Stream)
		return record(heads, len(heads), err)
	})},
	MsgScaleSegments: {planeCtrl, on(func(s *Server, r *ScaleReq) Reply {
		return done(s.cfg.Ctrl.Scale(r.Scope, r.Stream, r.Seal, r.Ranges))
	})},
	MsgSealStream: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		return done(s.cfg.Ctrl.SealStream(r.Scope, r.Stream))
	})},
	MsgTruncateStream: {planeCtrl, on(func(s *Server, r *TruncateStreamReq) Reply {
		return done(s.cfg.Ctrl.TruncateStream(r.Scope, r.Stream, controller.StreamCut(r.Cut)))
	})},
	MsgDeleteStream: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		return done(s.cfg.Ctrl.DeleteStream(r.Scope, r.Stream))
	})},
	MsgStreamConfig: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		cfg, err := s.cfg.Ctrl.StreamConfigOf(r.Scope, r.Stream)
		return record(cfg, 0, err)
	})},
	MsgUpdatePolicies: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		return done(s.cfg.Ctrl.UpdateStreamPolicies(r.Scope, r.Stream, r.Scaling, r.Retention))
	})},
	MsgIsSealed: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		sealed, err := s.cfg.Ctrl.IsStreamSealed(r.Scope, r.Stream)
		if sealed {
			return count(1, err)
		}
		return count(0, err)
	})},
	MsgSegmentCount: {planeCtrl, on(func(s *Server, r *StreamReq) Reply {
		return count(s.cfg.Ctrl.SegmentCount(r.Scope, r.Stream))
	})},
	MsgBeginTxn: {planeCtrl, on(func(s *Server, r *TxnReq) Reply {
		info, err := s.cfg.Ctrl.BeginTxn(r.Scope, r.Stream, time.Duration(r.LeaseMS)*time.Millisecond)
		return record(info, 0, err)
	})},
	MsgCommitTxn: {planeCtrl, on(func(s *Server, r *TxnReq) Reply {
		return done(s.cfg.Ctrl.CommitTxn(r.Scope, r.Stream, r.TxnID))
	})},
	MsgAbortTxn: {planeCtrl, on(func(s *Server, r *TxnReq) Reply {
		return done(s.cfg.Ctrl.AbortTxn(r.Scope, r.Stream, r.TxnID))
	})},
	MsgTxnStatus: {planeCtrl, on(func(s *Server, r *TxnReq) Reply {
		state, err := s.cfg.Ctrl.TxnStatus(r.Scope, r.Stream, r.TxnID)
		return record(state, 0, err)
	})},

	// Coordination store. Blocking watches end like tail reads: on their
	// event, their bound or the connection's end.
	MsgCoordCreate: {planeCoord, on(func(s *Server, r *CoordReq) Reply {
		switch {
		case r.SessionID != 0:
			sess, err := s.coordSession(r.SessionID)
			if err != nil {
				return done(err)
			}
			return done(sess.CreateEphemeral(r.Path, r.Data))
		case r.All:
			return done(s.cfg.Coord.CreateAll(r.Path, r.Data))
		}
		return done(s.cfg.Coord.Create(r.Path, r.Data))
	})},
	MsgCoordGet: {planeCoord, on(func(s *Server, r *CoordReq) Reply {
		data, st, err := s.cfg.Coord.Get(r.Path)
		return record(CoordRep{
			Data: data, Version: st.Version, CVersion: st.CVersion,
			Ephemeral: st.Ephemeral, Owner: st.Owner,
		}, 0, err)
	})},
	MsgCoordSet: {planeCoord, on(func(s *Server, r *CoordReq) Reply {
		st, err := s.cfg.Coord.Set(r.Path, r.Data, r.Version)
		return record(CoordRep{Version: st.Version, CVersion: st.CVersion}, 0, err)
	})},
	MsgCoordDelete: {planeCoord, on(func(s *Server, r *CoordReq) Reply {
		return done(s.cfg.Coord.Delete(r.Path, r.Version))
	})},
	MsgCoordChildren: {planeCoord, on(func(s *Server, r *CoordReq) Reply {
		names, err := s.cfg.Coord.Children(r.Path)
		return record(CoordRep{Children: names}, len(names), err)
	})},
	MsgCoordExists: {planeCoord, on(func(s *Server, r *CoordReq) Reply {
		if s.cfg.Coord.Exists(r.Path) {
			return Reply{Count: 1}
		}
		return Reply{}
	})},
	MsgCoordWatchData: {planeCoord, onCtx(func(ctx context.Context, s *Server, r *CoordReq) Reply {
		return s.handleCoordWatch(ctx, MsgCoordWatchData, r)
	})},
	MsgCoordWatchChildren: {planeCoord, onCtx(func(ctx context.Context, s *Server, r *CoordReq) Reply {
		return s.handleCoordWatch(ctx, MsgCoordWatchChildren, r)
	})},
	MsgCoordSessionOpen: {planeCoord, on(func(s *Server, r *CoordReq) Reply {
		sess := s.cfg.Coord.NewSessionTTL(time.Duration(r.TTLMS) * time.Millisecond)
		return Reply{Offset: sess.ID()}
	})},
	MsgCoordSessionRenew: {planeCoord, on(func(s *Server, r *CoordReq) Reply {
		sess, err := s.coordSession(r.SessionID)
		if err != nil {
			return done(err)
		}
		return done(sess.Renew())
	})},
	MsgCoordSessionClose: {planeCoord, on(func(s *Server, r *CoordReq) Reply {
		if sess := s.cfg.Coord.Session(r.SessionID); sess != nil {
			sess.Close()
		}
		return Reply{}
	})},

	// WAL bookies.
	MsgBookieAdd: {planeBookies, startBookieAdd},
	MsgBookieRead: {planeBookies, on(func(s *Server, r *BookieReq) Reply {
		n, err := s.bookie(r.Bookies[0])
		if err != nil {
			return done(err)
		}
		data, err := n.ReadEntry(r.Ledger, r.Entry)
		return errReply(err, Reply{Data: data})
	})},
	MsgBookieFence: {planeBookies, on(func(s *Server, r *BookieReq) Reply {
		n, err := s.bookie(r.Bookies[0])
		if err != nil {
			return done(err)
		}
		return offset(n.Fence(r.Ledger))
	})},
	MsgBookieDeleteLedger: {planeBookies, on(func(s *Server, r *BookieReq) Reply {
		n, err := s.bookie(r.Bookies[0])
		if err != nil {
			return done(err)
		}
		return done(n.DeleteLedger(r.Ledger))
	})},
}

// startAppend enqueues an append: AppendAfter enqueues synchronously, which
// makes the connection's frame order the segment's append order (§3.2).
func startAppend(c *srvConn, id uint64, body []byte) (func(context.Context) Reply, error) {
	var req AppendReq
	if err := req.unmarshalBinary(body); err != nil {
		return nil, err
	}
	data := c.srv.cfg.Data
	if req.CondOffset >= 0 {
		// Conditional appends block for durability; rare enough to afford a
		// goroutine. The copy keeps req itself off the heap on the hot path.
		cond := req
		return func(context.Context) Reply {
			return offset(data.AppendConditional(cond.Segment, cond.Data, cond.CondOffset))
		}, nil
	}
	data.AppendAfter(req.Segment, req.Data, req.WriterID, req.Prev, req.EventNum, req.EventCount,
		func(r segstore.AppendResult) { c.rw.send(id, offset(r.Offset, r.Err)) })
	return nil, nil
}

// startBookieAdd enqueues a journal add on every bookie the request names,
// the WAL hot path. They share the one decoded payload, which aliases the
// request's body (a bookie never mutates an entry), and the request gets
// one reply, with each bookie's outcome, once the last of them has one.
func startBookieAdd(c *srvConn, id uint64, body []byte) (func(context.Context) Reply, error) {
	var req BookieReq
	if err := req.unmarshalBinary(body); err != nil {
		return nil, err
	}
	outs := make(bookieOutcomes, len(req.Bookies))
	left := int32(len(outs))
	for i, b := range req.Bookies {
		settle := func(err error) {
			outs[i] = err
			if atomic.AddInt32(&left, -1) == 0 {
				c.rw.send(id, record(outs, len(outs), nil))
			}
		}
		if n, err := c.srv.bookie(b); err != nil {
			settle(err)
		} else {
			n.AddEntry(req.Ledger, req.Entry, req.Data, settle)
		}
	}
	return nil, nil
}

// bookie resolves a served bookie by id.
func (s *Server) bookie(id string) (bookkeeper.Node, error) {
	if n := s.cfg.Bookies[id]; n != nil {
		return n, nil
	}
	return nil, fmt.Errorf("wire: unknown bookie %q: %w", id, bookkeeper.ErrBookieDown)
}

// coordSession resolves a wire session id through the coordination store,
// which alone holds sessions: an id it does not know was closed or expired.
func (s *Server) coordSession(id int64) (*cluster.Session, error) {
	if sess := s.cfg.Coord.Session(id); sess != nil {
		return sess, nil
	}
	return nil, fmt.Errorf("wire: session %d: %w", id, cluster.ErrSessionClosed)
}

// coordWatchMaxWait bounds a server-side watch. On expiry the
// server answers Count=0 ("nothing happened, re-arm") so a one-shot watch
// registration can't leak forever when its client loses interest.
const coordWatchMaxWait = 30 * time.Second

func coordEvent(t cluster.EventType, path string) Reply {
	return record(CoordRep{EventType: int(t), EventPath: path}, 1, nil)
}

// handleCoordWatch serves a data or children watch as a bounded wait. The
// client sends the version it last observed (KnownVersion); the watch is
// armed FIRST and only then compared against the current state, so a change
// racing the arm is reported, never lost — this is what lets a client
// re-arm after a reconnect without a missed-event window.
func (s *Server) handleCoordWatch(ctx context.Context, t MessageType, req *CoordReq) Reply {
	cs := s.cfg.Coord
	var ch <-chan cluster.Event
	var err error
	if t == MsgCoordWatchData {
		ch, err = cs.WatchData(req.Path)
	} else {
		ch, err = cs.WatchChildren(req.Path)
	}
	if err != nil {
		if errors.Is(err, cluster.ErrNoNode) && t == MsgCoordWatchData {
			// The node vanished between the client's Get and this watch:
			// that IS the event the client is waiting for.
			return coordEvent(cluster.EventDeleted, req.Path)
		}
		return errReply(err, Reply{})
	}
	_, st, gerr := cs.Get(req.Path)
	if gerr != nil {
		if errors.Is(gerr, cluster.ErrNoNode) && t == MsgCoordWatchData {
			return coordEvent(cluster.EventDeleted, req.Path)
		}
		return errReply(gerr, Reply{})
	}
	cur, evType := st.Version, cluster.EventChanged
	if t == MsgCoordWatchChildren {
		cur, evType = st.CVersion, cluster.EventChildren
	}
	if req.KnownVersion >= 0 && cur != req.KnownVersion {
		return coordEvent(evType, req.Path)
	}
	timer := time.NewTimer(coordWatchMaxWait)
	defer timer.Stop()
	select {
	case ev, ok := <-ch:
		if !ok {
			return coordEvent(evType, req.Path)
		}
		return coordEvent(ev.Type, ev.Path)
	case <-timer.C:
		return Reply{} // Count 0: nothing fired, client re-arms
	case <-ctx.Done():
		return errReply(ctx.Err(), Reply{})
	}
}
