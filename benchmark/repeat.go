package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// declaration is BENCHMARK.json: the metrics this program must emit, and the
// bound by which each end-to-end metric may worsen.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// loadDeclaration reads BENCHMARK.json from the checkout's root: the working
// directory when run through run.sh, its parent under `go test`.
func loadDeclaration() (declaration, error) {
	var d declaration
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return d, fmt.Errorf("BENCHMARK.json not found; run from the root of a checkout: %w", err)
	}
	return d, json.Unmarshal(data, &d)
}

// runRepeat is the repeatability check the driver applies, run ahead of it:
// the workload runs n times for set A and n times for set B, interleaved,
// each run its own process, run i of either set on seed+i. Per end-to-end
// metric it prints both medians, their relative difference and each set's
// quartiles and spread, and reports false when a difference exceeds half the
// metric's bound or a spread exceeds the bound.
func runRepeat(workload string, seed uint64, seconds float64, n int, out io.Writer) (bool, error) {
	decl, err := loadDeclaration()
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	sets := [2]map[string][]float64{{}, {}}
	var steal []float64 // per run, the share of the vCPUs' time that other guests took
	for i := 0; i < n; i++ {
		for s := range sets {
			res, stolen, err := runChild(exe, workload, seed+uint64(i), seconds)
			if err != nil {
				return false, err
			}
			steal = append(steal, stolen)
			if !res.Correct {
				return false, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed+uint64(i), res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				sets[s][name] = append(sets[s][name], m.Value)
			}
		}
	}
	fmt.Fprintf(out, "\n### %s — %d runs per set, seeds %d..%d, -seconds %g\n\n", workload, n, seed, seed+uint64(n)-1, seconds)
	fmt.Fprintf(out, "Steal time over the %d runs: median %.1f %% of the vCPUs' time, largest %.1f %%.\n\n", len(steal), median(steal), percentile(steal, 100))
	fmt.Fprintln(out, "| metric | unit | median A | median B | diff | allowed | A q1..q3 (spread) | B q1..q3 (spread) | |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|")
	ok := true
	for _, d := range decl.EndToEnd {
		a, b := sets[0][d.Name], sets[1][d.Name]
		ma, mb := median(a), median(b)
		diff := (mb - ma) / ma
		verdict := "ok"
		// setup_s is held to the median test alone, as the driver holds it.
		if math.Abs(diff) > d.Bound/2 || (d.Name != "setup_s" && max(iqrFrac(a), iqrFrac(b)) > d.Bound) {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(out, "| `%s` | %s | %.6g | %.6g | %+.2f%% | ±%.1f%% | %s | %s | %s |\n",
			d.Name, d.Unit, ma, mb, diff*100, d.Bound*50, spreadCell(a), spreadCell(b), verdict)
	}
	return ok, nil
}

func spreadCell(xs []float64) string {
	if len(xs) < 2 {
		return "n/a"
	}
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g..%.5g (%.2f%%)", q1, q3, iqrFrac(xs)*100)
}

// runChild runs one untraced lifecycle in a process of its own, as the driver
// does, and decodes the result from the last line it prints and the steal
// share, in percent, from the line that reports it.
func runChild(exe, workload string, seed uint64, seconds float64) (result, float64, error) {
	var res result
	var stolen float64
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return res, 0, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, 0, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	for _, line := range lines {
		if n, _ := fmt.Sscanf(string(line), stealLine+"%f", &stolen); n == 1 {
			break
		}
	}
	return res, stolen, nil
}
