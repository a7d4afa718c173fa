package faultinject

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wire"
)

// ProcCluster is the process-level nemesis harness: it launches a REAL
// multi-process deployment — one coord process (coordination store, WAL
// bookies, controller) and N single-store processes of the pravega-server
// binary — and exposes kill -9 / SIGTERM / restart as first-class
// operations. Where StoreKiller crashes stores inside one process, this
// harness loses the whole OS process: no deferred cleanup runs, no
// goroutine gets to flush, exactly what §4.4's failover story must survive.
//
// Store processes restart on their original listen address, so the coord's
// cached connections and any external client reconnect instead of
// re-resolving, and store ids are zero-padded so the live-host order is
// stable across restarts.
type ProcCluster struct {
	cfg       ProcClusterConfig
	coordAddr string
	ltsDir    string

	mu         sync.Mutex
	coord      *managedProc
	stores     []*managedProc // nil entry = process down
	storeAddrs []string
	storeIDs   []string

	admin *wire.RemoteStore // harness's own coordination view
}

// ProcClusterConfig parameterizes a process cluster.
type ProcClusterConfig struct {
	// Bin is the pravega-server binary (see BuildServerBinary).
	Bin string
	// Dir is the scratch directory: shared LTS lives in Dir/lts (the
	// paper's EFS model — any store can serve any container's tiered data
	// after failover) and per-process logs in Dir/*.log.
	Dir string
	// Stores / ContainersPerStore / Bookies size the cluster.
	Stores             int
	ContainersPerStore int
	Bookies            int
	// LeaseTTL bounds how long a SIGKILLed store's claims linger before
	// survivors may take them (default 1.5s — fast failover for tests).
	LeaseTTL time.Duration
}

func (c *ProcClusterConfig) defaults() {
	if c.Stores <= 0 {
		c.Stores = 3
	}
	if c.ContainersPerStore <= 0 {
		c.ContainersPerStore = 2
	}
	if c.Bookies <= 0 {
		c.Bookies = 3
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 1500 * time.Millisecond
	}
}

// BuildServerBinary compiles cmd/pravega-server into dir and returns the
// binary path. Callers build once and share the binary across clusters.
func BuildServerBinary(dir string) (string, error) {
	bin := filepath.Join(dir, "pravega-server")
	cmd := exec.Command("go", "build", "-o", bin, "github.com/pravega-go/pravega/cmd/pravega-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("faultinject: building pravega-server: %v\n%s", err, out)
	}
	return bin, nil
}

// managedProc is one launched server process plus its exit notification.
type managedProc struct {
	cmd  *exec.Cmd
	done chan error // closed after Wait returns; holds the exit error
}

func launch(bin, logPath string, args ...string) (*managedProc, error) {
	logF, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logF
	cmd.Stderr = logF
	if err := cmd.Start(); err != nil {
		logF.Close()
		return nil, err
	}
	p := &managedProc{cmd: cmd, done: make(chan error, 1)}
	go func() {
		p.done <- cmd.Wait()
		close(p.done)
		logF.Close()
	}()
	return p, nil
}

// reserveAddr grabs a free localhost port and releases it for a child
// process to bind. The tiny window between release and bind is a test-only
// race we accept.
func reserveAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// StartProcCluster launches the coord process and every store process, and
// waits until the coord answers the wire protocol. Call AwaitConverged for
// full container placement.
func StartProcCluster(cfg ProcClusterConfig) (*ProcCluster, error) {
	cfg.defaults()
	if cfg.Bin == "" {
		return nil, errors.New("faultinject: ProcClusterConfig.Bin is required")
	}
	ltsDir := filepath.Join(cfg.Dir, "lts")
	if err := os.MkdirAll(ltsDir, 0o755); err != nil {
		return nil, err
	}
	coordAddr, err := reserveAddr()
	if err != nil {
		return nil, err
	}
	pc := &ProcCluster{cfg: cfg, coordAddr: coordAddr, ltsDir: ltsDir}

	pc.coord, err = launch(cfg.Bin, filepath.Join(cfg.Dir, "coord.log"),
		"-role", "coord",
		"-listen", coordAddr,
		"-stores", fmt.Sprint(cfg.Stores),
		"-containers", fmt.Sprint(cfg.ContainersPerStore),
		"-bookies", fmt.Sprint(cfg.Bookies),
	)
	if err != nil {
		return nil, fmt.Errorf("faultinject: launching coord: %w", err)
	}

	// The harness's own coordination view; also proves the coord is up.
	pc.admin, err = wire.DialCoordRetry(coordAddr, wire.ClientConfig{}, 30*time.Second)
	if err != nil {
		pc.Close()
		return nil, err
	}

	pc.stores = make([]*managedProc, cfg.Stores)
	pc.storeAddrs = make([]string, cfg.Stores)
	pc.storeIDs = make([]string, cfg.Stores)
	for i := 0; i < cfg.Stores; i++ {
		pc.storeIDs[i] = fmt.Sprintf("store-%02d", i)
		if pc.storeAddrs[i], err = reserveAddr(); err != nil {
			pc.Close()
			return nil, err
		}
		if pc.stores[i], err = pc.launchStore(i); err != nil {
			pc.Close()
			return nil, fmt.Errorf("faultinject: launching %s: %w", pc.storeIDs[i], err)
		}
	}
	return pc, nil
}

func (pc *ProcCluster) launchStore(i int) (*managedProc, error) {
	return launch(pc.cfg.Bin, filepath.Join(pc.cfg.Dir, pc.storeIDs[i]+".log"),
		"-role", "store",
		"-store-id", pc.storeIDs[i],
		"-listen", pc.storeAddrs[i],
		"-coord-addr", pc.coordAddr,
		"-lts-dir", pc.ltsDir,
		"-lease-ttl", pc.cfg.LeaseTTL.String(),
	)
}

// CoordAddr is what clients dial: the coord serves the control plane and
// placement snapshots routing data traffic to the store processes.
func (pc *ProcCluster) CoordAddr() string { return pc.coordAddr }

// AliveStores lists the indices of store processes currently running.
func (pc *ProcCluster) AliveStores() []int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var out []int
	for i, p := range pc.stores {
		if p != nil {
			out = append(out, i)
		}
	}
	return out
}

// KillStore SIGKILLs store i: the process dies with no cleanup of any
// kind. Its claims outlive it until the lease TTL lapses.
func (pc *ProcCluster) KillStore(i int) error {
	pc.mu.Lock()
	p := pc.stores[i]
	pc.stores[i] = nil
	pc.mu.Unlock()
	if p == nil {
		return fmt.Errorf("faultinject: store %d is not running", i)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	<-p.done // reap
	return nil
}

// StopStore SIGTERMs store i and waits for a clean exit: the graceful path
// — the store drains its containers and releases its claims before dying.
func (pc *ProcCluster) StopStore(i int, timeout time.Duration) error {
	pc.mu.Lock()
	p := pc.stores[i]
	pc.stores[i] = nil
	pc.mu.Unlock()
	if p == nil {
		return fmt.Errorf("faultinject: store %d is not running", i)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.done:
		return err // nil exit status = drained cleanly
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		return fmt.Errorf("faultinject: store %d did not exit within %v of SIGTERM", i, timeout)
	}
}

// RestartStore relaunches a killed/stopped store on its original address
// with its original id.
func (pc *ProcCluster) RestartStore(i int) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.stores[i] != nil {
		return fmt.Errorf("faultinject: store %d is already running", i)
	}
	p, err := pc.launchStore(i)
	if err != nil {
		return err
	}
	pc.stores[i] = p
	return nil
}

// AwaitConverged waits until the live-host set is exactly the running store
// processes and every container is claimed by one of them — survivors (or
// restarts) have fully taken over.
func (pc *ProcCluster) AwaitConverged(timeout time.Duration) error {
	total := pc.cfg.Stores * pc.cfg.ContainersPerStore
	deadline := time.Now().Add(timeout)
	var lastState string
	for {
		want := make(map[string]bool)
		for _, i := range pc.AliveStores() {
			want[pc.storeIDs[i]] = true
		}
		ids, _, err := segstore.LiveHosts(pc.admin)
		claims, cerr := segstore.ClaimedContainers(pc.admin)
		if err == nil && cerr == nil {
			lastState = fmt.Sprintf("live=%v claims=%d/%d", ids, len(claims), total)
			ok := len(ids) == len(want)
			for _, h := range ids {
				ok = ok && want[h]
			}
			if ok && len(claims) == total {
				for _, owner := range claims {
					ok = ok && want[owner]
				}
				if ok {
					return nil
				}
			}
		} else {
			lastState = fmt.Sprintf("live err=%v claims err=%v", err, cerr)
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("faultinject: cluster did not converge within %v (%s)", timeout, lastState)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close tears the whole cluster down: SIGKILL every store, then the coord.
func (pc *ProcCluster) Close() {
	pc.mu.Lock()
	stores := pc.stores
	pc.stores = make([]*managedProc, len(stores))
	coord := pc.coord
	pc.coord = nil
	pc.mu.Unlock()
	for _, p := range stores {
		if p != nil {
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	if pc.admin != nil {
		pc.admin.Close()
	}
	if coord != nil {
		_ = coord.cmd.Process.Kill()
		<-coord.done
	}
}
