package main

import (
	"math"

	"alid/internal/obs"
	"alid/internal/server"
	"alid/internal/stream"
)

// streamStage drives the sliding-window engine the way alidd's writers do:
// POST /v1/ingest {"wait":true} batches drawn from the workload's clusters,
// so every commit re-detects dirty clusters and evicts the oldest points,
// and every few commits a generation is renumbered. A request's latency is
// its ingest-to-visible time: it returns once the batch is published.
type streamStage struct {
	b      *bench
	points int
}

func (b *bench) newStream() *streamStage { return &streamStage{b: b} }

func (s *streamStage) step() {
	b := s.b
	pts := b.src.draw(b.sz.batch).pts
	body := mustJSON(server.IngestRequest{Points: pts, Wait: true})
	rec, el := b.post(b.streamH, "/v1/ingest", body, "server.ingest")
	if !b.op(status(rec)) {
		return
	}
	b.record("ingest", el.Seconds())
	s.points += len(pts)
	b.streamBatches = append(b.streamBatches, pts)
	// A compaction the commit triggered runs on the writer after the reply;
	// wait for it here, untimed, so it cannot spill into another stage.
	b.op(b.streamEng.Flush(b.ctx))
}

func (s *streamStage) finish() {
	b := s.b
	lat := b.series["ingest"]
	b.m["visible_p50_ms"] = median(lat) * 1e3
	b.m["ingest_pts_s"] = float64(s.points) / sum(lat)
	b.checkStream(s.points)
	if b.tr != nil {
		b.streamLayers()
	}
}

// checkStream verifies the window: the live points are exactly the
// retention cap, every point sent was accepted, and every cluster member is
// a live point.
func (b *bench) checkStream(points int) {
	if !b.op(b.streamEng.Flush(b.ctx)) {
		return
	}
	st := b.streamEng.Stats()
	if st.LiveN != b.sz.window {
		b.problem("stream: %d live points, window is %d", st.LiveN, b.sz.window)
	}
	if st.Ingested != int64(points) {
		b.problem("stream: %d points ingested, %d sent", st.Ingested, points)
	}
	v := b.streamEng.View()
	for ci, cl := range v.Clusters {
		for _, id := range cl.Members {
			if id < 0 || id >= v.Mat.N || !v.Mat.Live(id) {
				b.problem("stream: cluster %d member %d is not live", ci, id)
				break
			}
		}
	}
}

// streamLayers replays the stream stage's batches through a bare
// stream.Clusterer with the engine's policy (commit, publish a view, compact
// when the dead share passes the threshold) and times each step. Its final
// clusters must equal the engine's: the engine adds only the writer queue
// and the HTTP layer on top of the clusterer.
func (b *bench) streamLayers() {
	reg := obs.NewRegistry()
	c, err := stream.New(b.window.pts, stream.Config{
		Core:      coreConfig(b.base),
		BatchSize: math.MaxInt32, // commit explicitly, so the span covers the commit alone
		Retention: stream.Retention{MaxPoints: b.sz.window},
		Quantize:  true,
		Obs:       reg,
	})
	if !b.op(err) {
		return
	}
	if !b.op(c.Commit(b.ctx)) {
		return
	}
	c.View()
	evals0 := c.KernelEvals()
	reconv0 := sumValues(readCounters(reg, "alid_commit_dirty_reconverged_total"))
	for _, pts := range b.streamBatches {
		var err error
		for _, p := range pts {
			if err = c.Add(b.ctx, p); err != nil {
				break
			}
		}
		if !b.op(err) {
			return
		}
		root := b.tr.begin("stream.Batch", 0)
		sp := b.tr.begin("stream.Commit", root)
		err = c.Commit(b.ctx)
		b.tr.end(sp)
		if !b.op(err) {
			return
		}
		sp = b.tr.begin("stream.View", root)
		c.View()
		b.tr.end(sp)
		if n := c.N(); float64(n-c.Live()) > compactShare*float64(n) {
			sp = b.tr.begin("stream.CompactGeneration", root)
			_, err := c.CompactGeneration()
			b.tr.end(sp)
			if !b.op(err) {
				return
			}
			c.View()
		}
		b.tr.end(root)
	}
	commits := float64(len(b.streamBatches))
	b.m["stream.commit_ms"] = median(b.tr.durations("stream.Commit")) * 1e3
	b.m["stream.view_us"] = median(b.tr.durations("stream.View")) * 1e6
	b.m["stream.kernel_evals_per_commit"] = float64(c.KernelEvals()-evals0) / commits
	b.m["stream.reconverged_per_commit"] = (sumValues(readCounters(reg, "alid_commit_dirty_reconverged_total")) - reconv0) / commits
	compactions := b.tr.durations("stream.CompactGeneration")
	b.m["stream.compactions"] = float64(len(compactions))
	b.m["stream.compaction_ms"] = median(compactions) * 1e3
	b.m["engine.visible_self_ms"] = b.m["visible_p50_ms"] - b.m["stream.commit_ms"]
	if got, want := digestCore(c.Clusters()), digestCore(b.streamEng.Clusters()); got != want {
		b.problem("stream: the replayed clusterer's clusters differ from the engine's")
	}
}

func sumValues(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
