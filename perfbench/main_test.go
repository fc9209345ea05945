package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

// TestMain lets the tests run the benchmark as a separate process: with
// PERFBENCH_AS_MAIN=1 the test binary behaves as the benchmark command.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSmall runs the reduced-size benchmark in its own process and returns
// the result line and the fingerprint line.
func runSmall(t *testing.T, workload, seed, trace string) (result, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-workload", workload, "-seed", seed, "-seconds", "1",
		"-trace", trace, "-small", "-dir", t.TempDir())
	cmd.Env = append(os.Environ(), "PERFBENCH_AS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s seed %s: %v\n%s", workload, seed, err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	fp := regexp.MustCompile(`perfbench: fingerprint .*`).Find(stderr.Bytes())
	if fp == nil {
		t.Fatalf("%s: no fingerprint line\n%s", workload, stderr.String())
	}
	return res, string(fp)
}

func checkMetrics(t *testing.T, workload string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, d.name, m, d.unit)
		}
	}
}

// TestSmall runs every workload at reduced size, with all its checks, in
// two processes with the same seed (which must agree exactly on every
// seed-determined output) and once traced.
func TestSmall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, fpA := runSmall(t, w.name, "7", "0")
			b, fpB := runSmall(t, w.name, "7", "0")
			checkMetrics(t, w.name, a, endToEnd)
			for name, m := range a.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if fpA != fpB {
				t.Errorf("same seed, different outputs:\n%s\n%s", fpA, fpB)
			}
			for _, name := range []string{"kernel_evals", "avgf", "snapshot_mb"} {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v with the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			traced, _ := runSmall(t, w.name, "7", "1")
			checkMetrics(t, w.name, traced, perLayer)
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: %s (%s) in BENCHMARK.json, %s (%s) in the program", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
