// Command benchmark is this repository's benchmark. For each workload it
// runs two legs over the same generated requests:
//
//   - a deterministic replay leg through rmssd.MultiReplay on freshly built
//     devices, giving simulated throughput and latency and the simulator's
//     host speed;
//   - a live leg against the real cmd/rmserve binary over HTTP, driven open
//     loop, giving wall-clock latency, goodput, set-up time and memory.
//
// It prints every metric with its unit and sample count, checks every
// output (each live reply must be bit-identical to the replayed prediction
// for the same request), and ends with one JSON result line per workload.
// With -trace 1 it measures the per-layer ledger instead. See README.md.
//
//	go run .                               # all workloads, end to end
//	go run . -workload rmc1-cold -trace 1  # one workload, per layer
//	go run . -agree a.txt b.txt            # do two sets of runs agree?
//
// Run it from the repository checkout (or its benchmark directory); it
// builds rmserve from that checkout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seed    = flag.Uint64("seed", defaultSeed, "seed of the generated inputs and arrival schedules")
		seconds = flag.Int("seconds", 12, "measured seconds of the live leg")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer ledger")
		agree   = flag.Bool("agree", false, "compare two files of benchmark output: -agree a.txt b.txt")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -agree takes two files")
			return 2
		}
		ok, err := agreeFiles(filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if (*trace != 0 && *trace != 1) || *seconds < 1 || flag.NArg() != 0 {
		flag.Usage()
		return 2
	}
	sel := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		sel = []workload{w}
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tmp, err := os.MkdirTemp("", "rmssd-benchmark-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	bin, err := buildServer(ctx, root, tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	e := env{tmp: tmp, rmserve: bin, warmUp: 2 * time.Second}

	code := 0
	for _, w := range sel {
		rep, err := runWorkload(ctx, e, w, *seed, *seconds, *trace == 1)
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 2
		}
		line, err := rep.line(defs)
		var data []byte
		if err == nil {
			data, err = json.Marshal(line)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		fmt.Printf("%s%s\n", rep.text(defs), data)
		if !line.Correct {
			code = 1
		}
	}
	return code
}

// findRoot returns the repository checkout the benchmark measures: the
// working directory or its nearest ancestor holding cmd/rmserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rmserve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository checkout (cmd/rmserve) at or above the working directory")
		}
		dir = parent
	}
}
