package hosting

import (
	"context"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/sim"
)

// Conn is one client's connection to the cluster's segment stores: the
// cluster's router behind per-store request/response links (modelling one
// TCP connection per store, as the Pravega client holds). With a profile
// the links shape traffic; without one they only hop goroutines. Either way
// they preserve FIFO order — which the writer relies on for per-key event
// order (§3.2) — and deliver append callbacks off the caller's goroutine.
type Conn struct {
	*placement.Router
	profile *sim.Profile

	mu   sync.Mutex
	req  map[string]*sim.Link
	resp map[string]*sim.Link
}

// NewClientConn creates a connection. profile may be nil for an
// instantaneous (test) connection.
func (cl *Cluster) NewClientConn(profile *sim.Profile) *Conn {
	return &Conn{
		Router:  cl.router,
		profile: profile,
		req:     make(map[string]*sim.Link),
		resp:    make(map[string]*sim.Link),
	}
}

// links returns the request/response links for a store.
func (c *Conn) links(storeID string) (*sim.Link, *sim.Link) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.req[storeID]
	if !ok {
		cfg := sim.LinkConfig{}
		if c.profile != nil {
			cfg = c.profile.ClientLink
		}
		r = sim.NewLink(cfg)
		c.req[storeID] = r
		c.resp[storeID] = sim.NewLink(cfg)
	}
	return r, c.resp[storeID]
}

// roundTrip sleeps half an RTT now and returns the function that sleeps the
// other half (simple request/response calls: defer c.roundTrip()()).
func (c *Conn) roundTrip() func() {
	if c.profile == nil {
		return func() {}
	}
	time.Sleep(c.profile.ClientLink.Latency)
	return func() { time.Sleep(c.profile.ClientLink.Latency) }
}

// AppendAsync sends an append through the owning store's request link and
// delivers the result on its response link. Appends to segments on the same
// store stay FIFO end to end.
func (c *Conn) AppendAsync(name string, data []byte, writerID string, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	owner, err := c.OwnerOf(name)
	if err != nil {
		// The transport contract delivers callbacks on a transport-internal
		// goroutine; failing synchronously would re-enter the caller (the
		// writer invokes AppendAsync with its own lock held).
		go cb(segstore.AppendResult{Offset: -1, Err: err})
		return
	}
	req, resp := c.links(owner)
	req.Send(len(data)+64, func() {
		// resp.Send only schedules a timer, so no forwarding goroutine or
		// channel is needed per append.
		c.Router.AppendAsync(name, data, writerID, eventNum, eventCount, func(r segstore.AppendResult) {
			resp.Send(64, func() { cb(r) })
		})
	})
}

func (c *Conn) AppendConditional(name string, data []byte, expectedOffset int64) (int64, error) {
	defer c.roundTrip()()
	return c.Router.AppendConditional(name, data, expectedOffset)
}

func (c *Conn) ReadCtx(ctx context.Context, name string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error) {
	defer c.roundTrip()()
	return c.Router.ReadCtx(ctx, name, offset, maxBytes, wait)
}

func (c *Conn) GetInfo(name string) (segment.Info, error) {
	defer c.roundTrip()()
	return c.Router.GetInfo(name)
}

func (c *Conn) WriterState(name, writerID string) (int64, error) {
	defer c.roundTrip()()
	return c.Router.WriterState(name, writerID)
}

func (c *Conn) CreateSegment(name string) error {
	defer c.roundTrip()()
	return c.Router.CreateSegment(name)
}

func (c *Conn) MergeSegment(target, source string) (int64, error) {
	defer c.roundTrip()()
	return c.Router.MergeSegment(target, source)
}

// Close releases the connection. The cluster owns the router and the links
// hold no OS resources; Close exists to satisfy client.DataTransport.
func (c *Conn) Close() error { return nil }
