package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// buildServer compiles ./cmd/rmserve from the repository at root into dir.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "rmserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/rmserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building rmserve: %w", err)
	}
	return bin, nil
}

// writeModels writes the workload's rmserve -models file into dir.
func writeModels(w workload, dir string) (string, error) {
	data, err := json.Marshal(struct {
		Models []modelDecl `json:"models"`
	}{w.models})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, w.name+".models.json")
	return path, os.WriteFile(path, data, 0o644)
}

// server is one running rmserve process.
type server struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once the process has been waited for
	logs   bytes.Buffer  // stderr, read only after exited closes
}

// startServer execs rmserve and returns once /info first answers 200,
// with the time from exec to that answer. The process is killed if this
// program dies first.
func startServer(ctx context.Context, bin, models string, budget int, extra ...string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-models", models, "-host-budget", strconv.Itoa(budget), "-addr", "127.0.0.1:" + port}, extra...)
	s := &server{url: "http://127.0.0.1:" + port, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = &s.logs
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now() //lint:allow wallclock set-up time is a benchmark metric
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting rmserve: %w", err)
	}
	go func() {
		//lint:allow errcheck the process is killed by design; an early exit is reported from its logs
		s.cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		if code, _, err := get(ctx, client, s.url+"/info"); err == nil && code == http.StatusOK {
			return s, time.Since(start), nil //lint:allow wallclock set-up time is a benchmark metric
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("rmserve exited during start-up: %s", strings.TrimSpace(s.logs.String()))
		default:
		}
		if err := ctx.Err(); err != nil || time.Since(start) > time.Minute { //lint:allow wallclock start-up timeout
			s.stop()
			return nil, 0, fmt.Errorf("rmserve did not answer /info: %v", err)
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond)) //lint:allow wallclock start-up polling interval
	}
}

// stop kills the server and waits for the process to end.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	if err := s.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		fmt.Fprintf(os.Stderr, "benchmark: killing rmserve: %v\n", err)
	}
	<-s.exited
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

// get fetches url and returns the status and body.
func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON fetches url and decodes a 200 reply into v.
func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	code, body, err := get(ctx, client, url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, code)
	}
	return json.Unmarshal(body, v)
}

// procCPU returns the CPU time process pid's threads have used, to the
// nanosecond: the first field of each thread's schedstat. (The user and
// system times in /proc/pid/stat count whole 10 ms ticks.)
func procCPU(pid int) (time.Duration, error) {
	stats, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(stats) == 0 {
		return 0, fmt.Errorf("/proc/%d/task: no threads (%v)", pid, err)
	}
	var cpu time.Duration
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty", path)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		cpu += time.Duration(ns)
	}
	return cpu, nil
}

// peakRSS returns process pid's peak resident set size (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close() // read-only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// serverStats is the part of rmserve's /stats reply the benchmark reads.
type serverStats struct {
	Requests      int64 `json:"requests"`
	Inferences    int64 `json:"inferences"`
	DeviceBatches int64 `json:"deviceBatches"`
	Lookups       int64 `json:"lookups"`
}

// modelsStats is the part of rmserve's /models reply the benchmark reads.
type modelsStats struct {
	Models []struct {
		Submitted int64 `json:"submitted"`
		Waited    int64 `json:"waited"`
	} `json:"models"`
}

// sumMetric adds up every sample of one family in Prometheus text.
func sumMetric(text []byte, family string) (int64, error) {
	var sum int64
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		name, _, _ := strings.Cut(line, "{")
		name, _, _ = strings.Cut(name, " ")
		if name != family {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", family, err)
		}
		sum += v
	}
	return sum, sc.Err()
}
