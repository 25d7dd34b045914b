package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The idle keeper re-executes this binary, which under `go test` is the
// test binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spin()
	}
	os.Exit(m.Run())
}

// lastLine runs the command as the driver does and decodes the result.
func lastLine(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--out", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("benchmark %v: correct %v, attempted %d, failed %d", args, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func wantMetrics(t *testing.T, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: reported %v, want unit %s", d.Name, m, d.Unit)
		}
		if nonZero && m.Value == 0 {
			t.Errorf("metric %s is 0: a bound is a share of the parent's value", d.Name)
		}
	}
}

// Every workload, end to end, at a sub-second window: this breaks when an
// internal API the benchmark calls changes.
func TestEveryWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := lastLine(t, "--workload", w.Name, "--seed", "5", "--seconds", "0.5", "--trace", "0")
			wantMetrics(t, res, endToEnd, true)
		})
	}
}

func TestTracedRunSmoke(t *testing.T) {
	for _, w := range []string{"mixed_open", "failover_sim"} {
		t.Run(w, func(t *testing.T) {
			res := lastLine(t, "--workload", w, "--seed", "5", "--seconds", "1", "--trace", "1")
			wantMetrics(t, res, perLayer, false)
			if got := res.Metrics["raft.msgs_per_entry"].Value; got <= 0 {
				t.Errorf("raft.msgs_per_entry = %v", got)
			}
		})
	}
}

// Virtual-time results depend on the seed alone.
func TestFailoverSimRepeatsExactlyPerSeed(t *testing.T) {
	a, err := runSimRound(roundSeed(9, 0), 60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSimRound(roundSeed(9, 0), 60)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runSimRound(roundSeed(10, 0), 60)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.dyn, b.dyn) || !reflect.DeepEqual(a.raft, b.raft) {
		t.Error("two rounds on one seed differ")
	}
	if reflect.DeepEqual(a.dyn.OTSMs, c.dyn.OTSMs) {
		t.Error("rounds on different seeds are identical")
	}
	var p simPooled
	p.add(a)
	if p.orderErr != nil {
		t.Error(p.orderErr)
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope", "--out", t.TempDir()}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}
