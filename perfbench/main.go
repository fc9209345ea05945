// Command perfbench is the end-to-end benchmark of alid and alidd. One run
// generates a workload's inputs from a seed and drives the whole lifecycle of
// the system on them, in four timed stages:
//
//   - detect:  public alid.NewDetectorFlat + DetectAll, scored against the
//     planted clusters;
//   - serve:   POST /v1/assign through server.Handler(), single-point
//     requests interleaved with 64-point batches, on a published engine;
//   - stream:  POST /v1/ingest {"wait":true} batches into a sliding-window
//     engine (retention, eviction, generation compaction);
//   - restart: Engine.SaveFile followed by a cold engine.LoadFileOpts.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it records
// spans around its own calls into each layer, writes them to the run
// directory, and prints the per-layer metrics instead. The last line of
// standard output of a completed run is one JSON object: correct, attempted,
// failed and metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of alid/alidd sees; every untraced run
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"detect_s", "s"},
	{"kernel_evals", "count"},
	{"avgf", "ratio"},
	{"assign_p50_us", "us"},
	{"assign_p99_us", "us"},
	{"assign_qps", "1/s"},
	{"batch_qps", "queries/s"},
	{"visible_p50_ms", "ms"},
	{"ingest_pts_s", "points/s"},
	{"save_s", "s"},
	{"load_s", "s"},
	{"snapshot_mb", "MiB"},
}

// perLayer are the per-layer metrics every traced run reports.
var perLayer = []metricDef{
	{"server.self_us", "us"},
	{"server.batch_self_us", "us"},
	{"server.alloc_kb_per_req", "KiB"},
	{"engine.assign_us", "us"},
	{"engine.batch_us_per_query", "us"},
	{"engine.candidate_clusters_per_assign", "count"},
	{"engine.exact_scans_per_query", "count"},
	{"engine.pruned_scans_per_query", "count"},
	{"engine.visible_self_ms", "ms"},
	{"index.query_us", "us"},
	{"index.candidates_per_query", "count"},
	{"index.build_s", "s"},
	{"core.detectall_s", "s"},
	{"core.clusters", "count"},
	{"core.peak_submatrix_entries", "count"},
	{"stream.commit_ms", "ms"},
	{"stream.reconverged_per_commit", "count"},
	{"stream.kernel_evals_per_commit", "count"},
	{"stream.view_us", "us"},
	{"stream.compactions", "count"},
	{"stream.compaction_ms", "ms"},
	{"snapshot.encode_s", "s"},
	{"snapshot.sync_s", "s"},
	{"snapshot.decode_s", "s"},
	{"snapshot.restore_s", "s"},
	{"snapshot.alloc_mb_per_load", "MiB"},
	{"runtime.detect.gc_cycles", "count"},
	{"runtime.detect.alloc_mb", "MiB"},
	{"runtime.serve.gc_cycles", "count"},
	{"runtime.serve.alloc_mb", "MiB"},
	{"runtime.stream.gc_cycles", "count"},
	{"runtime.stream.alloc_mb", "MiB"},
	{"runtime.restart.gc_cycles", "count"},
	{"runtime.restart.alloc_mb", "MiB"},
}

// sizes fixes how much data each stage works on.
type sizes struct {
	n      int // base dataset: detected, served and snapshotted
	window int // live points of the sliding-window engine
	batch  int // points per ingest request (and per stream commit)
	setups int // set-ups per run; setup_s is their median
	pool   int // distinct assign queries
	rounds int // interleaved rounds of the four stages per run
}

// workload is one input family; every stage of a run draws from it.
type workload struct {
	name   string
	full   sizes
	small  sizes
	source func(seed int64, n int) *source
}

var workloads = []workload{
	{
		name:   "mixture",
		full:   sizes{n: 10000, window: 4000, batch: 256, setups: 3, pool: 1024, rounds: 20},
		small:  sizes{n: 1500, window: 800, batch: 64, setups: 2, pool: 128, rounds: 2},
		source: func(seed int64, n int) *source { return mixtureSource(seed, n) },
	},
	{
		name:   "blobs",
		full:   sizes{n: 10000, window: 4000, batch: 256, setups: 3, pool: 1024, rounds: 20},
		small:  sizes{n: 2000, window: 1000, batch: 64, setups: 2, pool: 128, rounds: 2},
		source: func(seed int64, _ int) *source { return blobSource(seed) },
	},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool
	dir      string
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds, split over the stages")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.BoolVar(&o.small, "small", false, "reduced sizes (for tests)")
	flag.StringVar(&o.dir, "dir", ".bench_build/perfbench-run", "directory for snapshot files and spans")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag))
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// run executes one benchmark run and assembles its result. Operation
// failures are counted, check failures clear Correct, and only errors that
// leave nothing to report (bad flags, no disk) are returned.
func run(ctx context.Context, o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if !(o.seconds > 0) {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	sz := w.full
	if o.small {
		sz = w.small
	}
	dir := filepath.Join(o.dir, fmt.Sprintf("%s-%d", w.name, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	b := &bench{w: w, sz: sz, seed: o.seed, dir: dir, ctx: ctx, m: map[string]float64{}, fingerprint: map[string]string{}, series: map[string][]float64{}, ops: map[string]*[2]int{}, stage: "setup"}
	if o.trace {
		b.tr = newTracer()
	}
	budget := time.Duration(o.seconds * float64(time.Second))

	if err := b.setup(); err != nil {
		return nil, err
	}
	defer b.inputs.close()
	stages := b.newStages()
	b.runRounds(stages, budget)
	// Read before the stages' final checks, which load and score on their
	// own: peak_rss_mb covers the set-up and the timed stages.
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	b.m["peak_rss_mb"] = rss
	b.finishStages(stages)
	b.m["setup_s"] = median(b.series["setup"])
	for _, name := range []string{"setup", "detect", "assign", "batch", "ingest", "save", "load"} {
		describe(name, b.series[name])
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
		path := filepath.Join(dir, "spans.json")
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.tr.spans), path)
		// The end-to-end figures of a traced run, for the tracing overhead.
		for _, d := range endToEnd {
			fmt.Fprintf(os.Stderr, "perfbench: traced %s = %.6g %s\n", d.name, b.m[d.name], d.unit)
		}
	}
	res := &result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.m[d.name]
		if !ok {
			b.problem("metric %s was not measured", d.name)
			res.Correct = false
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fmt.Fprint(os.Stderr, "perfbench: operations attempted/failed:")
	for _, name := range []string{"setup", "detect", "serve", "stream", "restart"} {
		if c := b.ops[name]; c != nil {
			fmt.Fprintf(os.Stderr, " %s=%d/%d", name, c[0], c[1])
		}
	}
	fmt.Fprintln(os.Stderr)
	fmt.Fprintf(os.Stderr, "perfbench: fingerprint detect=%s serve=%s window=%s snapshot=%s\n",
		b.fingerprint["detect"], b.fingerprint["serve"], b.fingerprint["window"], b.fingerprint["snapshot"])
	if b.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// stage is one stage of the lifecycle. step performs one operation (or
// one fixed group of them) and records its timing; finish derives the
// stage's metrics and checks its outputs after the last round.
type stage interface {
	step()
	finish()
}

// timedStage is a stage with its share of the budget and the runtime's
// allocation and GC counts over its slices.
type timedStage struct {
	name       string
	share      float64
	s          stage
	alloc, gcs float64
}

func (b *bench) newStages() []*timedStage {
	return []*timedStage{
		{name: "detect", share: 0.3, s: b.newDetect()},
		{name: "serve", share: 0.2, s: b.newServe()},
		{name: "stream", share: 0.3, s: b.newStream()},
		{name: "restart", share: 0.2, s: b.newRestart()},
	}
}

// runRounds interleaves the stages in rounds: every round gives each stage
// its share of the budget, and at least one operation. A slow spell of a
// shared host then lands on every stage alike instead of on whichever
// stage happened to run during it; the extra set-ups are spread over the
// run for the same reason. Each slice starts after a full collection, so
// garbage left by the previous slice is not charged to it.
func (b *bench) runRounds(stages []*timedStage, budget time.Duration) {
	resetupEvery := b.sz.rounds / b.sz.setups
	for r := 0; r < b.sz.rounds; r++ {
		if r > 0 && r%resetupEvery == 0 && len(b.series["setup"]) < b.sz.setups {
			b.stage = "setup"
			b.resetup()
		}
		for _, st := range stages {
			b.stage = st.name
			slice := time.Duration(float64(budget) * st.share / float64(b.sz.rounds))
			runtime.GC()
			m0 := readMem()
			for start := time.Now(); ; {
				st.s.step()
				if time.Since(start) >= slice {
					break
				}
			}
			a, g := m0.since()
			st.alloc += a
			st.gcs += g
		}
	}
}

// finishStages derives every stage's metrics and runs its checks.
func (b *bench) finishStages(stages []*timedStage) {
	for _, st := range stages {
		b.stage = st.name
		st.s.finish()
		b.m["runtime."+st.name+".alloc_mb"] = st.alloc
		b.m["runtime."+st.name+".gc_cycles"] = st.gcs
	}
}

// problem records a failed correctness check.
func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(err error) bool {
	b.attempted++
	c := b.ops[b.stage]
	if c == nil {
		c = new([2]int)
		b.ops[b.stage] = c
	}
	c[0]++
	if err != nil {
		b.failed++
		c[1]++
		if b.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
		}
		return false
	}
	return true
}
