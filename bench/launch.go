package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wire"
)

// The deployment every workload runs against. Recorded in the output so a
// later reader knows what the numbers were measured on.
const (
	deployContainers = 4
	deployBookies    = 3
	deployLeaseTTL   = 30 * time.Second // a scheduler stall on a shared box must not expire the lease mid-run
	readyTimeout     = 30 * time.Second
)

// moduleRoot locates the repository through `go env GOMOD`, so the harness
// runs from any directory inside the module.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	mod := strings.TrimSpace(string(out))
	if mod == "" || mod == os.DevNull {
		return "", errors.New("not inside a Go module (go env GOMOD is empty)")
	}
	return filepath.Dir(mod), nil
}

// buildServer compiles cmd/pravega-server into outDir once per invocation
// and returns the binary path and the build time.
func buildServer(root, outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "pravega-server")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pravega-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building pravega-server: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// proc is one launched server process.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed once Wait has returned
}

func startProc(bin, dir, name string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logF, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logF
	cmd.Stderr = logF
	// Own process group so the whole child tree dies with one kill, and
	// SIGKILL from the kernel if the harness itself is killed -9.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logF.Close()
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the harness always kills
		logF.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill SIGKILLs the process group and waits for the process to be reaped.
func (p *proc) kill() {
	_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
	<-p.done
}

var metricsLine = regexp.MustCompile(`metrics on http://([^/\s]+)/metrics`)

// metricsAddr waits for the server to print the address its -metrics
// endpoint bound (it was launched with port 0).
func (p *proc) metricsAddr(deadline time.Time) (string, error) {
	for {
		data, err := os.ReadFile(p.logPath)
		if err == nil {
			if m := metricsLine.FindSubmatch(data); m != nil {
				return string(m[1]), nil
			}
		}
		if p.exited() {
			return "", fmt.Errorf("%s exited before announcing its metrics endpoint", p.name)
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not announce its metrics endpoint", p.name)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deployment is one coord + one store process with the harness's own
// coordination connection.
type deployment struct {
	dir          string
	coord, store *proc
	coordAddr    string
	coordMetrics string
	storeMetrics string
	admin        *wire.RemoteStore
}

// live tracks every deployment and scratch directory so that any exit path
// — normal, error, signal, deadline — can tear them down.
var live = struct {
	sync.Mutex
	deployments map[*deployment]bool
	dirs        map[string]bool
}{deployments: make(map[*deployment]bool), dirs: make(map[string]bool)}

func reserveAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// launch starts a fresh deployment under a new scratch directory in outDir
// and returns once every container is claimed. The port reservations are
// released before the children bind, so a failed start is retried once on
// fresh ports.
func launch(bin, outDir string) (*deployment, error) {
	d, err := launchOnce(bin, outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: launch failed (%v); retrying once on new ports\n", err)
		d, err = launchOnce(bin, outDir)
	}
	return d, err
}

func launchOnce(bin, outDir string) (d *deployment, err error) {
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	d = &deployment{dir: dir}
	ltsDir := filepath.Join(dir, "lts")
	live.Lock()
	live.deployments[d] = true
	live.Unlock()
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, d.logs())
			d.close()
			d = nil
		}
	}()
	if err := os.Mkdir(ltsDir, 0o755); err != nil {
		return d, err
	}
	if d.coordAddr, err = reserveAddr(); err != nil {
		return d, err
	}
	storeAddr, err := reserveAddr()
	if err != nil {
		return d, err
	}
	deadline := time.Now().Add(readyTimeout)

	d.coord, err = startProc(bin, dir, "coord",
		"-role", "coord", "-listen", d.coordAddr,
		"-stores", "1", "-containers", fmt.Sprint(deployContainers), "-bookies", fmt.Sprint(deployBookies),
		"-metrics", "127.0.0.1:0")
	if err != nil {
		return d, fmt.Errorf("launching coord: %w", err)
	}
	d.store, err = startProc(bin, dir, "store",
		"-role", "store", "-store-id", "store-00", "-listen", storeAddr,
		"-coord-addr", d.coordAddr, "-lts-dir", ltsDir,
		"-lease-ttl", deployLeaseTTL.String(),
		"-metrics", "127.0.0.1:0")
	if err != nil {
		return d, fmt.Errorf("launching store: %w", err)
	}

	if d.admin, err = wire.DialCoordRetry(d.coordAddr, wire.ClientConfig{}, readyTimeout); err != nil {
		return d, err
	}
	for {
		claims, cerr := segstore.ClaimedContainers(d.admin)
		if cerr == nil && len(claims) == deployContainers {
			break
		}
		if d.coord.exited() || d.store.exited() {
			return d, errors.New("a server process exited during start-up")
		}
		if time.Now().After(deadline) {
			return d, fmt.Errorf("deployment not converged within %v: %d/%d containers claimed (err=%v)",
				readyTimeout, len(claims), deployContainers, cerr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d.coordMetrics, err = d.coord.metricsAddr(deadline); err != nil {
		return d, err
	}
	if d.storeMetrics, err = d.store.metricsAddr(deadline); err != nil {
		return d, err
	}
	return d, nil
}

// logs returns the tail of both child logs, for failure reports.
func (d *deployment) logs() string {
	var b bytes.Buffer
	for _, p := range []*proc{d.coord, d.store} {
		if p == nil {
			continue
		}
		data, _ := os.ReadFile(p.logPath)
		if len(data) > 4096 {
			data = data[len(data)-4096:]
		}
		fmt.Fprintf(&b, "--- %s log ---\n%s\n", p.name, data)
	}
	return b.String()
}

// close kills both process groups, waits for them, and removes the scratch
// directory. Safe to call more than once and from the signal path.
func (d *deployment) close() {
	live.Lock()
	known := live.deployments[d]
	delete(live.deployments, d)
	live.Unlock()
	if !known {
		return
	}
	if d.admin != nil {
		d.admin.Close()
	}
	for _, p := range []*proc{d.store, d.coord} {
		if p != nil {
			p.kill()
		}
	}
	_ = os.RemoveAll(d.dir)
}

// trackDir registers a scratch directory for removal by cleanupAll.
func trackDir(dir string) {
	live.Lock()
	live.dirs[dir] = true
	live.Unlock()
}

// cleanupAll tears down whatever is still live.
func cleanupAll() {
	live.Lock()
	ds := make([]*deployment, 0, len(live.deployments))
	for d := range live.deployments {
		ds = append(ds, d)
	}
	dirs := make([]string, 0, len(live.dirs))
	for dir := range live.dirs {
		dirs = append(dirs, dir)
		delete(live.dirs, dir)
	}
	live.Unlock()
	for _, d := range ds {
		d.close()
	}
	for _, dir := range dirs {
		_ = os.RemoveAll(dir)
	}
}

// guardExit installs the SIGINT/SIGTERM handler and returns the function
// that arms the harness's own wall deadline. Both tear everything down and
// exit non-zero.
func guardExit() (arm func(time.Duration)) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	deadline := make(chan time.Duration, 1)
	go func() {
		var expired <-chan time.Time
		var limit time.Duration
		for {
			select {
			case s := <-sig:
				fmt.Fprintf(os.Stderr, "bench: %v: cleaning up\n", s)
				cleanupAll()
				os.Exit(130)
			case limit = <-deadline:
				expired = time.After(limit)
			case <-expired:
				fmt.Fprintf(os.Stderr, "bench: wall deadline of %v passed: cleaning up\n", limit)
				cleanupAll()
				os.Exit(3)
			}
		}
	}()
	return func(d time.Duration) { deadline <- d }
}
