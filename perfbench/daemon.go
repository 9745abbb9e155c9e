package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serveproto"
)

// buildServe compiles cmd/dmi-serve from the checkout at root into dir.
func buildServe(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "dmi-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dmi-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build dmi-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running dmi-serve child.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	pid  int
	done chan struct{} // closed once the process has exited
	err  error         // exit status, valid after done

	mu     sync.Mutex
	stderr strings.Builder
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startDaemon launches dmi-serve on a free loopback port with rip and
// prewarm pools of workers, and returns once /v1/healthz answers ready. The
// returned duration runs from launch until that first ready answer.
func startDaemon(ctx context.Context, bin string, workers int) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers))
	// Should the benchmark die without stopping it, the kernel ends the
	// daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dmi-serve: %w", err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, done: make(chan struct{})}
	urls := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		found := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil && !found {
				found = true
				urls <- m[1]
			}
		}
		_, _ = io.Copy(io.Discard, pipe) // keep draining after a scanner error
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.url = <-urls:
	case <-d.done:
		return nil, 0, fmt.Errorf("dmi-serve exited before listening: %v\n%s", d.err, d.log())
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, 0, errors.New("dmi-serve did not start listening within 60s")
	}
	if err := d.waitHealthy(ctx); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// waitHealthy polls /v1/healthz until it reports ready.
func (d *daemon) waitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h serveproto.Health
		if err := getJSON(ctx, client, d.url+"/v1/healthz", &h); err == nil && h.OK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dmi-serve at %s not healthy within 30s", d.url)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-d.done:
			return fmt.Errorf("dmi-serve exited while starting: %v\n%s", d.err, d.log())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stats reads /v1/stats.
func (d *daemon) stats(ctx context.Context) (serveproto.StatsResponse, error) {
	var st serveproto.StatsResponse
	err := getJSON(ctx, http.DefaultClient, d.url+"/v1/stats", &st)
	return st, err
}

// cpu is the daemon's user plus system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.pid) }

// stop sends SIGTERM and requires the clean drain: exit status 0 and the
// daemon's "drained, exiting" line. Anything else is a failed run.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal dmi-serve: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("dmi-serve did not drain within 30s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("dmi-serve drain: %v\n%s", d.err, d.log())
	}
	if !strings.Contains(d.log(), "drained, exiting") {
		return fmt.Errorf("dmi-serve exited 0 without draining\n%s", d.log())
	}
	return nil
}

// kill ends the process unconditionally and waits for it; safe to call on
// any path, including after stop.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // the process may be exiting on its own
	<-d.done
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// launchMedian starts the daemon n times and keeps the last one running. Each
// earlier one is stopped with the clean-drain check. It returns the running
// daemon and every launch-to-ready time in seconds.
func launchMedian(ctx context.Context, bin string, workers, n int) (*daemon, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		d, took, err := startDaemon(ctx, bin, workers)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if i == n-1 {
			return d, setups, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// removeAll deletes a scratch directory, reporting failures on stderr only:
// a leftover directory under the build directory does not change a result.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
