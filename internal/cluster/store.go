// Package cluster implements the coordination service Pravega delegates to
// Apache ZooKeeper in the paper (§2.2, §4.4): a hierarchical key-value store
// with versioned compare-and-set updates, ephemeral nodes bound to sessions
// (optionally leased), and one-shot watches. Pravega only needs this surface
// — stream metadata itself lives in key-value tables backed by Pravega
// segments, so the coordination service is deliberately small and is never
// on the data path.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors returned by Store operations.
var (
	ErrNodeExists    = errors.New("cluster: node already exists")
	ErrNoNode        = errors.New("cluster: node does not exist")
	ErrBadVersion    = errors.New("cluster: version mismatch")
	ErrNotEmpty      = errors.New("cluster: node has children")
	ErrSessionClosed = errors.New("cluster: session closed")
	ErrNoParent      = errors.New("cluster: parent node does not exist")
)

// EventType describes what a watch observed.
type EventType int

// Watch event kinds.
const (
	EventCreated EventType = iota
	EventChanged
	EventDeleted
	EventChildren
)

// Event is delivered to watchers.
type Event struct {
	Type EventType
	Path string
}

// Stat carries node metadata. CVersion counts child-set changes (ZooKeeper's
// cversion); remote watchers use it to detect child churn that happened while
// they were disconnected.
type Stat struct {
	Version   int64
	CVersion  int64
	Ephemeral bool
	Owner     int64 // session id for ephemeral nodes
}

type node struct {
	data      []byte
	version   int64
	cversion  int64
	ephemeral bool
	owner     int64
	children  map[string]*node

	dataWatch  []chan Event
	childWatch []chan Event
}

func (n *node) stat() Stat {
	return Stat{Version: n.version, CVersion: n.cversion, Ephemeral: n.ephemeral, Owner: n.owner}
}

// Store is the coordination service. The zero value is not usable; call
// NewStore.
type Store struct {
	mu       sync.Mutex
	root     *node
	sessions map[int64]*Session
	nextSess int64
}

// NewStore creates an empty coordination store with a root node "/".
func NewStore() *Store {
	return &Store{
		root:     &node{children: make(map[string]*node)},
		sessions: make(map[int64]*Session),
	}
}

// Session groups ephemeral nodes; closing it deletes them, firing watches —
// the mechanism behind failure detection of segment stores and controllers.
type Session struct {
	store *Store
	id    int64
	open  bool
	paths map[string]struct{}
	// Lease fields (lease.go): a session with ttl > 0 expires — exactly as
	// if Close had been called — unless Renew moves the deadline forward.
	ttl      time.Duration
	deadline time.Time
	expiry   *time.Timer // closes the session at its deadline; nil without a TTL
}

// NewSession opens a session.
func (s *Store) NewSession() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSess++
	sess := &Session{store: s, id: s.nextSess, open: true, paths: make(map[string]struct{})}
	s.sessions[sess.id] = sess
	return sess
}

// Session resolves an open session by id, or nil: an expired session has
// left the map, so it misses exactly like a closed one. The wire
// server addresses sessions this way — the store's map is the only place a
// session lives, and closing or expiring one is what removes it.
func (s *Store) Session(id int64) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if se := s.sessions[id]; se != nil && s.liveLocked(se) {
		return se
	}
	return nil
}

// ID returns the session identifier.
func (se *Session) ID() int64 { return se.id }

// Close expires the session: all its ephemeral nodes are removed and their
// watches fired. Closing twice is a no-op.
func (se *Session) Close() {
	s := se.store
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeSessionLocked(se)
}

func (s *Store) closeSessionLocked(se *Session) {
	if !se.open {
		return
	}
	se.open = false
	if se.expiry != nil {
		se.expiry.Stop()
	}
	delete(s.sessions, se.id)
	paths := make([]string, 0, len(se.paths))
	for p := range se.paths {
		paths = append(paths, p)
	}
	// Delete deepest paths first so parents empty out correctly.
	sort.Slice(paths, func(i, j int) bool { return len(paths[i]) > len(paths[j]) })
	for _, p := range paths {
		s.deleteLocked(p, -1)
	}
}

func splitPath(path string) ([]string, error) {
	if path == "/" {
		return nil, nil
	}
	if !strings.HasPrefix(path, "/") || strings.HasSuffix(path, "/") {
		return nil, fmt.Errorf("cluster: invalid path %q", path)
	}
	return strings.Split(path[1:], "/"), nil
}

func (s *Store) lookup(path string) (*node, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	n := s.root
	for _, p := range parts {
		c, ok := n.children[p]
		if !ok {
			return nil, ErrNoNode
		}
		n = c
	}
	return n, nil
}

func (s *Store) lookupParent(path string) (parent *node, leaf string, err error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("cluster: cannot operate on root")
	}
	n := s.root
	for _, p := range parts[:len(parts)-1] {
		c, ok := n.children[p]
		if !ok {
			return nil, "", ErrNoParent
		}
		n = c
	}
	return n, parts[len(parts)-1], nil
}

func fire(chans *[]chan Event, ev Event) {
	for _, ch := range *chans {
		ch <- ev
		close(ch)
	}
	*chans = nil
}

// Create makes a persistent node. The parent must exist.
func (s *Store) Create(path string, data []byte) error {
	return s.create(path, data, nil)
}

// CreateEphemeral makes a node owned by the session; it disappears when the
// session closes.
func (se *Session) CreateEphemeral(path string, data []byte) error {
	se.store.mu.Lock()
	open := se.open
	se.store.mu.Unlock()
	if !open {
		return ErrSessionClosed
	}
	return se.store.create(path, data, se)
}

func (s *Store) create(path string, data []byte, sess *Session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess != nil && !s.liveLocked(sess) {
		return ErrSessionClosed
	}
	parent, leaf, err := s.lookupParent(path)
	if err != nil {
		return err
	}
	if _, exists := parent.children[leaf]; exists {
		return ErrNodeExists
	}
	n := &node{data: append([]byte(nil), data...), children: make(map[string]*node)}
	if sess != nil {
		n.ephemeral = true
		n.owner = sess.id
		sess.paths[path] = struct{}{}
	}
	parent.children[leaf] = n
	parent.cversion++
	fire(&parent.childWatch, Event{Type: EventChildren, Path: path})
	return nil
}

// CreateAll creates every missing ancestor, then the node itself (like
// `mkdir -p`). Existing nodes along the way are left untouched; an existing
// leaf returns ErrNodeExists.
func (s *Store) CreateAll(path string, data []byte) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	prefix := ""
	for i := 0; i < len(parts)-1; i++ {
		prefix += "/" + parts[i]
		if err := s.Create(prefix, nil); err != nil && !errors.Is(err, ErrNodeExists) {
			return err
		}
	}
	return s.Create(path, data)
}

// Get returns the node's data and stat.
func (s *Store) Get(path string) ([]byte, Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(path)
	if err != nil {
		return nil, Stat{}, err
	}
	return append([]byte(nil), n.data...), n.stat(), nil
}

// Set replaces the node's data. version >= 0 demands a compare-and-set
// against the current version; -1 overwrites unconditionally. The node's
// version increments on success.
func (s *Store) Set(path string, data []byte, version int64) (Stat, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(path)
	if err != nil {
		return Stat{}, err
	}
	if version >= 0 && version != n.version {
		return Stat{}, ErrBadVersion
	}
	n.data = append([]byte(nil), data...)
	n.version++
	fire(&n.dataWatch, Event{Type: EventChanged, Path: path})
	return n.stat(), nil
}

// Delete removes a leaf node; version semantics as in Set.
func (s *Store) Delete(path string, version int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteLocked(path, version)
}

func (s *Store) deleteLocked(path string, version int64) error {
	parent, leaf, err := s.lookupParent(path)
	if err != nil {
		return err
	}
	n, ok := parent.children[leaf]
	if !ok {
		return ErrNoNode
	}
	if version >= 0 && version != n.version {
		return ErrBadVersion
	}
	if len(n.children) > 0 {
		return ErrNotEmpty
	}
	delete(parent.children, leaf)
	parent.cversion++
	if n.ephemeral {
		if sess, ok := s.sessions[n.owner]; ok {
			delete(sess.paths, path)
		}
	}
	fire(&n.dataWatch, Event{Type: EventDeleted, Path: path})
	fire(&parent.childWatch, Event{Type: EventChildren, Path: path})
	return nil
}

// Children lists the names of a node's children, sorted.
func (s *Store) Children(path string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// WatchData returns a channel that receives exactly one event when the
// node's data changes or the node is deleted (one-shot, like ZooKeeper).
func (s *Store) WatchData(path string) (<-chan Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	ch := make(chan Event, 1)
	n.dataWatch = append(n.dataWatch, ch)
	return ch, nil
}

// WatchChildren returns a channel that receives exactly one event when the
// node's child set changes.
func (s *Store) WatchChildren(path string) (<-chan Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.lookup(path)
	if err != nil {
		return nil, err
	}
	ch := make(chan Event, 1)
	n.childWatch = append(n.childWatch, ch)
	return ch, nil
}

// Exists reports whether the node exists.
func (s *Store) Exists(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.lookup(path)
	return err == nil
}
