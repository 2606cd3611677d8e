package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemons compiles manrsd and manrs-gw into .bench_build/bin under
// the module root. The go tool skips the link when a binary is current,
// so only a checkout's first run pays for it.
func buildDaemons(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "manrsmeter/cmd/manrsd", "manrsmeter/cmd/manrs-gw")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build daemons: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one child process with its query and admin addresses.
type daemon struct {
	name       string
	url, admin string
	cmd        *exec.Cmd
	logPath    string
	exited     chan struct{}
}

// fleet owns every child process of a run. stop must run on every exit
// path; runQuery defers it.
type fleet struct {
	bin, dir string
	daemons  []*daemon
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start launches binary with args plus -listen and -admin on free
// loopback ports, stderr to a file in the run directory, and waits
// until /healthz answers 200.
func (f *fleet) start(ctx context.Context, name, binary string, args ...string) (*daemon, error) {
	listen, err := freeAddr()
	if err != nil {
		return nil, err
	}
	admin, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, url: "http://" + listen, admin: "http://" + admin,
		logPath: filepath.Join(f.dir, name+".log"), exited: make(chan struct{})}
	logFile, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	d.cmd = exec.Command(filepath.Join(f.bin, binary), append(args, "-listen", listen, "-admin", admin)...)
	d.cmd.Stderr = logFile
	d.cmd.Stdout = logFile
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	f.daemons = append(f.daemons, d)
	go func() {
		_ = d.cmd.Wait() // the exit status of a stopped daemon is not a result
		close(d.exited)
	}()

	deadline := time.Now().Add(90 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("%s exited before it was ready:\n%s", name, d.logTail())
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not ready after 90s:\n%s", name, d.logTail())
		}
	}
}

func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// stop terminates every child and waits until each has ended: SIGTERM
// first, so the daemons drain, SIGKILL for any still alive 3 s later.
func (f *fleet) stop() {
	for _, d := range f.daemons {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	}
	grace := time.After(3 * time.Second)
	for _, d := range f.daemons {
		select {
		case <-d.exited:
		case <-grace:
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	f.daemons = nil
}

// scrape reads one daemon's /metrics into series (name{labels}) → value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// counters sums the named unlabelled counters over daemons.
func counters(daemons []*daemon, names ...string) (map[string]float64, error) {
	sum := make(map[string]float64, len(names))
	for _, d := range daemons {
		series, err := d.scrape()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", d.name, err)
		}
		for _, n := range names {
			sum[n] += series[n]
		}
	}
	return sum, nil
}
