package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"alid/internal/engine"
	"alid/internal/server"
	"alid/internal/stream"
)

// bench is the state of one run: its inputs, the engines built in set-up,
// the measurements and the operation and check tallies.
type bench struct {
	w    workload
	sz   sizes
	seed int64
	dir  string
	ctx  context.Context
	tr   *tracer

	m map[string]float64
	// fingerprint holds digests of the outputs, printed to standard error:
	// runs with the same seed must print the same ones, in any process.
	fingerprint map[string]string
	attempted   int
	failed      int
	stage       string             // the stage operations are counted against
	ops         map[string]*[2]int // per stage: attempted, failed
	problems    []string

	*inputs
	series        map[string][]float64 // timing samples, by series name
	streamBatches [][][]float64        // what the stream stage ingested, in order
}

// inputs is what one set-up builds: the generated data and the two engines
// with their HTTP handlers.
type inputs struct {
	base    *dataset    // detected, served and snapshotted
	src     *source     // continues past base: the stream window and batches
	window  *dataset    // the stream engine's initial window
	queries [][]float64 // jittered copies of base points
	qsrc    []int       // base id each query was jittered from

	serveEng  *engine.Engine
	serveH    http.Handler
	streamEng *engine.Engine
	streamH   http.Handler
}

// Stream engine policy: 256-point commits into a window of sz.window live
// points; once a quarter of the committed ids are dead the engine renumbers
// a fresh generation, so a stream stage of a hundred commits compacts
// several times.
const compactShare = 0.25

// batchSize is the request width of the serve stage's batch form.
const batchSize = 64

// setup builds the run's inputs; the stages work on these. Further,
// identical set-ups are timed between rounds (see runRounds) and thrown
// away; setup_s is the median of all of them.
func (b *bench) setup() error {
	runtime.GC()
	start := time.Now()
	in, err := b.build()
	if !b.op(err) {
		return err
	}
	b.record("setup", time.Since(start).Seconds())
	b.inputs = in
	b.fingerprint["serve"] = fmt.Sprintf("%016x", digestCore(in.serveEng.Clusters()))
	b.fingerprint["window"] = fmt.Sprintf("%016x", digestCore(in.streamEng.Clusters()))
	return nil
}

// resetup times one more set-up and discards it.
func (b *bench) resetup() {
	runtime.GC()
	start := time.Now()
	in, err := b.build()
	if !b.op(err) {
		return
	}
	b.record("setup", time.Since(start).Seconds())
	in.close()
}

// build generates the inputs from the seed and builds the serving and
// streaming engines over them.
func (b *bench) build() (*inputs, error) {
	n := b.sz.n
	in := &inputs{src: b.w.source(b.seed, n)}
	in.base = in.src.draw(n)
	in.window = in.src.draw(b.sz.window)

	rng := rand.New(rand.NewSource(b.seed + 1))
	jitter := in.base.scale / math.Sqrt(2*float64(in.base.d)) / 6
	in.queries = make([][]float64, b.sz.pool)
	in.qsrc = make([]int, b.sz.pool)
	for i := range in.queries {
		id := rng.Intn(n)
		q := make([]float64, in.base.d)
		for j := range q {
			q[j] = in.base.pts[id][j] + rng.NormFloat64()*jitter
		}
		in.queries[i], in.qsrc[i] = q, id
	}

	cfg := coreConfig(in.base)
	var err error
	in.serveEng, err = engine.New(engine.Config{Core: cfg, BatchSize: b.sz.batch}, in.base.pts)
	if err != nil {
		return nil, fmt.Errorf("serve engine: %w", err)
	}
	in.serveH = server.New(in.serveEng, server.Options{}).Handler()
	in.streamEng, err = engine.New(engine.Config{
		Core:                cfg,
		BatchSize:           b.sz.batch,
		Retention:           stream.Retention{MaxPoints: b.sz.window},
		CompactEvictedShare: compactShare,
	}, in.window.pts)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("stream engine: %w", err)
	}
	in.streamH = server.New(in.streamEng, server.Options{}).Handler()
	return in, nil
}

// close stops the engines' writers.
func (in *inputs) close() {
	for _, e := range []*engine.Engine{in.serveEng, in.streamEng} {
		if e != nil {
			e.Close()
		}
	}
}

// status turns a non-2xx response into an error.
func status(rec *httptest.ResponseRecorder) error {
	if rec.Code/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only float64 slices are marshalled; they are finite
	}
	return data
}

// affinityOf is the Laplacian kernel computed directly from two raw points,
// independently of the program's fused norm/dot kernel.
func affinityOf(k float64, x, y []float64) float64 {
	s := 0.0
	for j := range x {
		d := x[j] - y[j]
		s += d * d
	}
	return math.Exp(-k * math.Sqrt(s))
}

// relClose reports |a-b| ≤ tol·max(1,|a|,|b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
