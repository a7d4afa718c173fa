package bookkeeper

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/pravega-go/pravega/internal/cluster"
)

// ReplicationConfig mirrors the paper's Table 1: ensemble=3, writeQuorum=3,
// ackQuorum=2.
type ReplicationConfig struct {
	Ensemble    int
	WriteQuorum int
	AckQuorum   int
}

// DefaultReplication returns the paper's replication settings.
func DefaultReplication() ReplicationConfig {
	return ReplicationConfig{Ensemble: 3, WriteQuorum: 3, AckQuorum: 2}
}

// Validate checks quorum arithmetic.
func (r ReplicationConfig) Validate() error {
	if r.Ensemble < 1 || r.WriteQuorum < 1 || r.AckQuorum < 1 {
		return fmt.Errorf("bookkeeper: quorums must be positive: %+v", r)
	}
	if r.WriteQuorum > r.Ensemble {
		return fmt.Errorf("bookkeeper: writeQuorum %d > ensemble %d", r.WriteQuorum, r.Ensemble)
	}
	if r.AckQuorum > r.WriteQuorum {
		return fmt.Errorf("bookkeeper: ackQuorum %d > writeQuorum %d", r.AckQuorum, r.WriteQuorum)
	}
	return nil
}

// LedgerState is the lifecycle state recorded in ledger metadata.
type LedgerState string

// Ledger lifecycle states.
const (
	LedgerOpen   LedgerState = "OPEN"
	LedgerClosed LedgerState = "CLOSED"
)

// LedgerMetadata is stored in the coordination service, as BookKeeper
// stores its ledger metadata in ZooKeeper.
type LedgerMetadata struct {
	ID          int64             `json:"id"`
	Ensemble    []string          `json:"ensemble"`
	Replication ReplicationConfig `json:"replication"`
	State       LedgerState       `json:"state"`
	LastEntry   int64             `json:"lastEntry"` // valid when closed
}

// Client creates and opens ledgers against a set of bookies.
type Client struct {
	mu      sync.Mutex
	bookies map[string]Node
	meta    cluster.Coord
}

// ledgersRoot is the path prefix for ledger metadata nodes.
const ledgersRoot = "/bookkeeper/ledgers"

// ClientConfig parameterizes a BookKeeper client.
type ClientConfig struct {
	// Meta is the coordination store holding ledger metadata.
	Meta cluster.Coord
}

// NewClient builds a client. Bookies are registered with RegisterBookie.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Meta == nil {
		return nil, errors.New("bookkeeper: ClientConfig.Meta is required")
	}
	if err := cfg.Meta.CreateAll(ledgersRoot, nil); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
		return nil, err
	}
	return &Client{
		bookies: make(map[string]Node),
		meta:    cfg.Meta,
	}, nil
}

// RegisterBookie makes a bookie available for new ensembles. Registering a
// node with an existing id replaces it (fault wrappers swap themselves in).
func (c *Client) RegisterBookie(b Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bookies[b.ID()] = b
}

func (c *Client) bookie(id string) (Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.bookies[id]
	if !ok {
		return nil, fmt.Errorf("bookkeeper: unknown bookie %q", id)
	}
	return b, nil
}

func (c *Client) metaPath(id int64) string { return fmt.Sprintf("%s/L%016d", ledgersRoot, id) }

// nextLedgerID allocates a cluster-unique ledger id by CAS-bumping a counter
// node (BookKeeper's ZooKeeper idgen). Ids must come from the coordination
// store, not client memory: multiple store processes each run their own
// Client against the same metadata tree.
func (c *Client) nextLedgerID() (int64, error) {
	path := ledgersRoot + "/idgen"
	for {
		st, err := c.meta.Set(path, nil, -1)
		if err == nil {
			return st.Version, nil
		}
		if !errors.Is(err, cluster.ErrNoNode) {
			return 0, err
		}
		if cerr := c.meta.CreateAll(path, nil); cerr != nil && !errors.Is(cerr, cluster.ErrNodeExists) {
			return 0, cerr
		}
	}
}

func (c *Client) writeMetadata(md LedgerMetadata, create bool) error {
	data, err := json.Marshal(md)
	if err != nil {
		return err
	}
	if create {
		return c.meta.Create(c.metaPath(md.ID), data)
	}
	_, err = c.meta.Set(c.metaPath(md.ID), data, -1)
	return err
}

func (c *Client) readMetadata(id int64) (LedgerMetadata, error) {
	data, _, err := c.meta.Get(c.metaPath(id))
	if err != nil {
		if errors.Is(err, cluster.ErrNoNode) {
			return LedgerMetadata{}, ErrNoLedger
		}
		return LedgerMetadata{}, err
	}
	var md LedgerMetadata
	if err := json.Unmarshal(data, &md); err != nil {
		return LedgerMetadata{}, err
	}
	return md, nil
}

// CreateLedger allocates a new open ledger over an ensemble chosen from the
// registered bookies (least-loaded not modelled; selection is rotation by
// ledger id, which spreads load evenly as in the paper's symmetric setup).
func (c *Client) CreateLedger(rep ReplicationConfig) (*LedgerHandle, error) {
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	ids := make([]string, 0, len(c.bookies))
	for id, b := range c.bookies {
		if !b.IsDown() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	c.mu.Unlock()
	lid, err := c.nextLedgerID()
	if err != nil {
		return nil, err
	}

	if len(ids) < rep.Ensemble {
		return nil, fmt.Errorf("%w: need %d bookies, have %d alive", ErrNotEnough, rep.Ensemble, len(ids))
	}
	ens := make([]string, rep.Ensemble)
	for i := 0; i < rep.Ensemble; i++ {
		ens[i] = ids[(int(lid)+i)%len(ids)]
	}
	md := LedgerMetadata{ID: lid, Ensemble: ens, Replication: rep, State: LedgerOpen, LastEntry: -1}
	if err := c.writeMetadata(md, true); err != nil {
		return nil, err
	}
	return &LedgerHandle{client: c, md: md, next: 0, lac: -1}, nil
}

// LedgerHandle is the single-writer handle to an open ledger.
type LedgerHandle struct {
	client *Client
	md     LedgerMetadata

	mu      sync.Mutex
	next    int64
	lac     int64 // last add confirmed
	closed  bool
	err     error // sticky error after a failed append
	pending sync.WaitGroup
}

// ID returns the ledger id.
func (h *LedgerHandle) ID() int64 { return h.md.ID }

// LastAddConfirmed returns the highest entry id known durable.
func (h *LedgerHandle) LastAddConfirmed() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lac
}

// AppendAsync is AppendPartsAsync with one part: the ledger takes
// ownership of data, and every replica gets it as it is.
func (h *LedgerHandle) AppendAsync(data []byte, cb func(int64, error)) {
	h.AppendPartsAsync([][]byte{data}, cb)
}

// AppendPartsAsync writes the concatenation of parts as the next entry,
// invoking cb(entryID, err) when ackQuorum bookies confirm. Calls are
// pipelined; acknowledgements complete in order per bookie. Each bookie, or
// each Host, gets the entry from this call directly, so cb may run before
// it returns (a bookie that is down fails the add at once). A ledger entry
// is parts: a Host sends them as they are, and the local bookies, which
// keep what they are given, share one joined copy. The ledger takes
// ownership of the parts: the caller must not mutate them afterwards.
func (h *LedgerHandle) AppendPartsAsync(parts [][]byte, cb func(int64, error)) {
	h.mu.Lock()
	if h.closed || h.err != nil {
		err := h.err
		if err == nil {
			err = ErrLedgerClosed
		}
		h.mu.Unlock()
		cb(-1, err)
		return
	}
	entryID := h.next
	h.next++
	h.pending.Add(1)
	h.mu.Unlock()

	rep := h.md.Replication
	// Round-robin striping of entries across the ensemble.
	targets := make([]string, rep.WriteQuorum)
	for i := 0; i < rep.WriteQuorum; i++ {
		targets[i] = h.md.Ensemble[(int(entryID)+i)%len(h.md.Ensemble)]
	}

	var mu sync.Mutex
	acks, fails := 0, 0
	done := false
	settle := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if done {
			return
		}
		if err != nil {
			fails++
			if fails > rep.WriteQuorum-rep.AckQuorum {
				done = true
				h.setErr(err)
				h.pending.Done()
				cb(-1, err)
			}
			return
		}
		acks++
		if acks >= rep.AckQuorum {
			done = true
			h.advanceLAC(entryID)
			h.pending.Done()
			cb(entryID, nil)
		}
	}
	// The write set, grouped by transport: a bookie is a group of one
	// unless a Host it shares with others carries the entry to them all.
	type group struct {
		host Host
		ids  []string
	}
	var groups []group
	var flat []byte // the entry, joined once for the local bookies
	if len(parts) == 1 {
		flat = parts[0]
	}
	for _, id := range targets {
		b, err := h.client.bookie(id)
		if err != nil {
			settle(err)
			continue
		}
		hb, ok := b.(Hosted)
		if !ok {
			if flat == nil {
				flat = bytes.Join(parts, nil)
			}
			b.AddEntry(h.md.ID, entryID, flat, settle)
			continue
		}
		i := 0
		for i < len(groups) && groups[i].host != hb.Host() {
			i++
		}
		if i == len(groups) {
			groups = append(groups, group{host: hb.Host()})
		}
		groups[i].ids = append(groups[i].ids, id)
	}
	for _, g := range groups {
		g.host.AddEntries(g.ids, h.md.ID, entryID, parts, settle)
	}
}

func (h *LedgerHandle) setErr(err error) {
	h.mu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.mu.Unlock()
}

func (h *LedgerHandle) advanceLAC(entryID int64) {
	h.mu.Lock()
	if entryID > h.lac {
		h.lac = entryID
	}
	h.mu.Unlock()
}

// Close seals the ledger, recording its final length in metadata. It first
// waits for in-flight adds to settle: appends are pipelined, so an entry can
// reach its ack quorum after Close is called (the WAL rolls over while acks
// are outstanding), and sealing with the instantaneous LAC would make that
// acked entry invisible to replay — silent data loss on recovery.
func (h *LedgerHandle) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()

	h.pending.Wait()
	h.mu.Lock()
	last := h.lac
	h.mu.Unlock()

	md := h.md
	md.State = LedgerClosed
	md.LastEntry = last
	return h.client.writeMetadata(md, false)
}

// ReadEntry reads one entry, trying the bookies that store it in order.
func (c *Client) ReadEntry(md LedgerMetadata, entryID int64) ([]byte, error) {
	rep := md.Replication
	var lastErr error = ErrNoEntry
	for i := 0; i < rep.WriteQuorum; i++ {
		id := md.Ensemble[(int(entryID)+i)%len(md.Ensemble)]
		b, err := c.bookie(id)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := b.ReadEntry(md.ID, entryID)
		if err == nil {
			return data, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Metadata returns the ledger's current metadata.
func (c *Client) Metadata(id int64) (LedgerMetadata, error) { return c.readMetadata(id) }

// OpenLedgerRecovery fences the ledger on its ensemble, determines the last
// recoverable entry (highest entry id confirmed by at least ackQuorum... in
// this model, the max across reachable bookies, re-replicated on read), and
// closes the ledger. This is how a restarted segment container takes
// exclusive ownership of its WAL (§4.4).
func (c *Client) OpenLedgerRecovery(id int64) (LedgerMetadata, error) {
	md, err := c.readMetadata(id)
	if err != nil {
		return LedgerMetadata{}, err
	}
	if md.State == LedgerClosed {
		return md, nil
	}
	last := int64(-1)
	reachable := 0
	for _, bid := range md.Ensemble {
		b, err := c.bookie(bid)
		if err != nil {
			continue
		}
		l, err := b.Fence(md.ID)
		if err != nil {
			continue
		}
		reachable++
		if l > last {
			last = l
		}
	}
	quorumNeeded := md.Replication.Ensemble - md.Replication.AckQuorum + 1
	if reachable < quorumNeeded {
		return LedgerMetadata{}, fmt.Errorf("%w: fenced %d of %d bookies, need %d",
			ErrNotEnough, reachable, md.Replication.Ensemble, quorumNeeded)
	}
	// Walk back from the highest seen entry until one is readable: entries
	// beyond the last ack'd may exist on a minority and are discarded by
	// recovery, exactly as BookKeeper's recovery protocol does.
	for last >= 0 {
		if _, err := c.ReadEntry(md, last); err == nil {
			break
		}
		last--
	}
	md.State = LedgerClosed
	md.LastEntry = last
	if err := c.writeMetadata(md, false); err != nil {
		return LedgerMetadata{}, err
	}
	return md, nil
}

// DeleteLedger removes the ledger from all bookies and drops its metadata.
func (c *Client) DeleteLedger(id int64) error {
	md, err := c.readMetadata(id)
	if err != nil {
		if errors.Is(err, ErrNoLedger) {
			return nil
		}
		return err
	}
	for _, bid := range md.Ensemble {
		if b, err := c.bookie(bid); err == nil {
			_ = b.DeleteLedger(id) // a down bookie holds no obligation
		}
	}
	return c.meta.Delete(c.metaPath(id), -1)
}
