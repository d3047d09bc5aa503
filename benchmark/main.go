// Command benchmark is the repository's lifecycle benchmark: for one workload
// it sets up a graph, builds the index at one thread and at TN threads, cold
// starts from files, and drives a read phase and an update phase over
// loopback HTTP against the in-process live server — checking every output
// against an oracle. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	name := flag.String("workload", "all", "workload to run: rmat-skew, planted-comm, churn-mixed, or all")
	seed := flag.Uint64("seed", 1, "seed of the graph, request and batch streams")
	seconds := flag.Float64("seconds", 30, "length of the measured phases; a load window is 1/30 of it")
	trace := flag.Int("trace", 0, "1 runs the lifecycle decomposed and prints the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload N times twice over (interleaved sets A and B) and compare the sets")
	smoke := flag.Bool("smoke", false, "swap the workload's graph for a tiny one (with a small -seconds: a sub-second run)")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1> [-repeat N] [-smoke]")
		os.Exit(2)
	}
	os.Exit(mainExit(*name, *seed, *seconds, *trace == 1, *repeat, *smoke))
}

// mainExit returns the exit code: 0 for a correct run, 1 when an output
// disagreed with its oracle (the result is still printed, with correct:
// false), 2 when no result is reported at all.
func mainExit(name string, seed uint64, seconds float64, trace bool, repeat int, smoke bool) int {
	ws := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
			return 2
		}
		ws = []workload{w}
	}
	code := 0
	for _, w := range ws {
		if repeat > 0 {
			ok, err := runRepeat(w.name, seed, seconds, repeat, os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			if !ok {
				code = 1
			}
			continue
		}
		res, err := runLifecycle(config{w: w, seed: seed, seconds: seconds, trace: trace, smoke: smoke, outDir: "benchmark/out", log: os.Stdout})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if errors.Is(err, errRefused) {
				fmt.Fprintln(os.Stderr, "no result printed: a guard rail rejected this run's measurements")
			}
			return 2
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}
