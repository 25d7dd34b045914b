package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
)

// checkRepeat runs every workload twice on the same code and fails if any
// end-to-end metric's two values differ, relative to their mean, by more
// than the bound BENCHMARK.json gives it: a bound tighter than the
// benchmark's own repeatability could not tell a regression from noise.
// Each run is a fresh process, as the driver's are (a run that inherits the
// heap of the last one is measurably slower), and the second uses the next
// seed, as the driver's repeats do. A run that fails its correctness check
// exits non-zero and so fails this too.
func checkRepeat(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-13s %-11s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "spread", "bound")
	bad := 0
	for _, wl := range workloads {
		var runs [2]result
		for i := range runs {
			cmd := exec.Command(exe, "--workload", wl.Name, "--seed", fmt.Sprint(o.seed+int64(i)),
				"--seconds", fmt.Sprint(o.window.Seconds()), "--trace", "0", "--out", o.scratch)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.Name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &runs[i]); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: result line: %v\n", wl.Name, err)
				return 1
			}
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			spread := math.Abs(a-b) / ((a + b) / 2)
			verdict := ""
			if spread > d.Bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-11s %14.4f %14.4f %9.4f %7.3f%s\n", wl.Name, d.Name, a, b, spread, d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchmark: %d metric(s) repeat worse than their bound\n", bad)
		return 1
	}
	return 0
}
