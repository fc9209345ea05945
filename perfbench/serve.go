package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"alid/internal/obs"
	"alid/internal/server"
)

// singlesPerBatch is the serve mix: one closed-loop client sends this many
// single-point requests, then one 64-point batch request, and repeats.
const singlesPerBatch = 16

// memberAgreement is the least share of jittered cluster members that must
// be assigned to their source point's cluster. It is not higher because
// ALID splits some planted clusters into a dense core and a remainder, and
// a member near the boundary can score higher against its sibling piece:
// 87-92% agree on mixture seeds, all of them on blobs.
const memberAgreement = 0.75

// post sends one in-process request through a handler, recording a span
// around ServeHTTP, and returns the recorder and the handler's time.
// Building the request is not timed.
func (b *bench) post(h http.Handler, path string, body []byte, spanName string) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	sp := b.tr.begin(spanName, 0)
	start := time.Now()
	h.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	b.tr.end(sp)
	return rec, elapsed
}

// serveStage is read-only serving: single-point and batch assigns through
// the HTTP handler of the published serve engine, from one closed-loop
// client. No commit, detection or codec runs.
type serveStage struct {
	b                 *bench
	singles, batches  [][]byte
	singleAns         []*server.AssignResponse
	batchAns          [][]server.AssignResponse
	exact0, pruned0   float64
	nextSingle, nextB int
}

func (b *bench) newServe() *serveStage {
	s := &serveStage{b: b}
	s.singles, s.batches = b.assignBodies()
	s.singleAns = make([]*server.AssignResponse, len(s.singles))
	s.batchAns = make([][]server.AssignResponse, len(s.batches))
	s.exact0, s.pruned0 = scanCounts(b.serveEng.Obs())
	return s
}

// step sends singlesPerBatch single-point requests, then one batch.
func (s *serveStage) step() {
	b := s.b
	for k := 0; k < singlesPerBatch; k++ {
		i := s.nextSingle % len(s.singles)
		s.nextSingle++
		rec, el := b.post(b.serveH, "/v1/assign", s.singles[i], "server.assign")
		if !b.op(status(rec)) {
			continue
		}
		b.record("assign", el.Seconds())
		if s.singleAns[i] == nil {
			s.singleAns[i] = new(server.AssignResponse)
			b.op(json.Unmarshal(rec.Body.Bytes(), s.singleAns[i]))
		}
	}
	j := s.nextB % len(s.batches)
	s.nextB++
	rec, el := b.post(b.serveH, "/v1/assign", s.batches[j], "server.assign_batch")
	if !b.op(status(rec)) {
		return
	}
	b.record("batch", el.Seconds())
	if s.batchAns[j] == nil {
		var resp server.AssignBatchResponse
		b.op(json.Unmarshal(rec.Body.Bytes(), &resp))
		s.batchAns[j] = resp.Results
	}
}

func (s *serveStage) finish() {
	b := s.b
	single, batch := b.series["assign"], b.series["batch"]
	b.m["assign_p50_us"] = quantile(single, 0.5) * 1e6
	b.m["assign_p99_us"] = quantile(single, 0.99) * 1e6
	b.m["assign_qps"] = float64(len(single)) / sum(single)
	b.m["batch_qps"] = float64(len(batch)*batchSize) / sum(batch)
	exact1, pruned1 := scanCounts(b.serveEng.Obs())
	queries := float64(len(single) + len(batch)*batchSize)
	b.m["engine.exact_scans_per_query"] = (exact1 - s.exact0) / queries
	b.m["engine.pruned_scans_per_query"] = (pruned1 - s.pruned0) / queries

	b.checkServe(s.singles, s.batches, s.singleAns, s.batchAns)
	if b.tr != nil {
		b.serveLayers(s.singles, s.batches)
	}
}

// assignBodies encodes the query pool once: one single-point body per query
// and one batch body per consecutive run of batchSize queries.
func (b *bench) assignBodies() (singles, batches [][]byte) {
	for _, q := range b.queries {
		singles = append(singles, mustJSON(server.AssignRequest{Point: q}))
	}
	for i := 0; i+batchSize <= len(b.queries); i += batchSize {
		batches = append(batches, mustJSON(server.AssignRequest{Points: b.queries[i : i+batchSize]}))
	}
	return singles, batches
}

// checkServe verifies the answers against independent computation: every
// score is recomputed as Σ wᵢ·a(q, xᵢ) over the reported cluster from the
// raw points, batch answers must equal single-point answers bit for bit,
// and most jittered members must land in their source point's cluster.
// Queries the timed loop did not reach are asked here, untimed.
func (b *bench) checkServe(singles, batches [][]byte, singleAns []*server.AssignResponse, batchAns [][]server.AssignResponse) {
	for i, a := range singleAns {
		if a == nil {
			rec, _ := b.post(b.serveH, "/v1/assign", singles[i], "check")
			if b.op(status(rec)) {
				singleAns[i] = new(server.AssignResponse)
				b.op(json.Unmarshal(rec.Body.Bytes(), singleAns[i]))
			}
		}
	}
	for j, a := range batchAns {
		if a == nil {
			rec, _ := b.post(b.serveH, "/v1/assign", batches[j], "check")
			if b.op(status(rec)) {
				var resp server.AssignBatchResponse
				b.op(json.Unmarshal(rec.Body.Bytes(), &resp))
				batchAns[j] = resp.Results
			}
		}
	}
	clusters := b.serveEng.Clusters()
	labels := b.serveEng.Labels()
	k := b.base.kernelScale()
	members, agree := 0, 0
	for i, a := range singleAns {
		if a == nil {
			continue
		}
		if a.Cluster >= len(clusters) {
			b.problem("query %d: cluster %d of %d", i, a.Cluster, len(clusters))
			continue
		}
		if a.Cluster >= 0 {
			cl := clusters[a.Cluster]
			s := 0.0
			for t, id := range cl.Members {
				s += cl.Weights[t] * affinityOf(k, b.queries[i], b.base.pts[id])
			}
			if !relClose(s, a.Score, 1e-9) {
				b.problem("query %d: score %.12f, Σ wᵢ·a(q,xᵢ) is %.12f", i, a.Score, s)
			}
			if a.Density != cl.Density {
				b.problem("query %d: density %v, cluster has %v", i, a.Density, cl.Density)
			}
		}
		if l := labels[b.qsrc[i]]; l >= 0 {
			members++
			if a.Cluster == l {
				agree++
			}
		}
	}
	for j, res := range batchAns {
		if len(res) != batchSize {
			b.problem("batch %d: %d results", j, len(res))
			continue
		}
		for t, a := range res {
			s := singleAns[j*batchSize+t]
			if s != nil && (a.Cluster != s.Cluster || math.Float64bits(a.Score) != math.Float64bits(s.Score)) {
				b.problem("batch %d query %d: cluster %d score %v, single-point gives %d %v", j, t, a.Cluster, a.Score, s.Cluster, s.Score)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d of %d jittered members assigned to their source's cluster\n", agree, members)
	if members == 0 || float64(agree) < memberAgreement*float64(members) {
		b.problem("%d of %d jittered members assigned to their source's cluster", agree, members)
	}
}

// serveLayers splits the serve path at its layer boundaries on the same
// queries: handler versus the bare engine call, the engine's batch path,
// the index query alone, and the handler's allocations per request.
func (b *bench) serveLayers(singles, batches [][]byte) {
	eng := b.serveEng
	for i, q := range b.queries {
		rec, _ := b.post(b.serveH, "/v1/assign", singles[i], "split.server.assign")
		b.op(status(rec))
		sp := b.tr.begin("engine.Assign", 0)
		_, err := eng.Assign(q)
		b.tr.end(sp)
		b.op(err)
	}
	cands := 0
	for j := range batches {
		rec, _ := b.post(b.serveH, "/v1/assign", batches[j], "split.server.assign_batch")
		b.op(status(rec))
		qs := b.queries[j*batchSize : (j+1)*batchSize]
		sp := b.tr.begin("engine.AssignBatch", 0)
		as, err := eng.AssignBatch(qs)
		b.tr.end(sp)
		if b.op(err) {
			for _, a := range as {
				cands += a.Candidates
			}
		}
	}
	handler := median(b.tr.durations("split.server.assign"))
	engine1 := median(b.tr.durations("engine.Assign"))
	handlerB := median(b.tr.durations("split.server.assign_batch"))
	engineB := median(b.tr.durations("engine.AssignBatch"))
	b.m["engine.assign_us"] = engine1 * 1e6
	b.m["server.self_us"] = (handler - engine1) * 1e6
	b.m["engine.batch_us_per_query"] = engineB / batchSize * 1e6
	b.m["server.batch_self_us"] = (handlerB - engineB) * 1e6
	b.m["engine.candidate_clusters_per_assign"] = float64(cands) / float64(len(batches)*batchSize)

	idx := eng.View().Index
	sig := make([]int64, idx.SigLen())
	mark := make([]uint32, idx.N())
	var cand []int32
	found := 0
	for i, q := range b.queries {
		sp := b.tr.begin("index.QueryInto", 0)
		cand = idx.QueryInto(q, sig, cand[:0], mark, uint32(i+1))
		b.tr.end(sp)
		found += len(cand)
	}
	b.m["index.query_us"] = median(b.tr.durations("index.QueryInto")) * 1e6
	b.m["index.candidates_per_query"] = float64(found) / float64(len(b.queries))

	reqs := make([]*http.Request, len(singles))
	recs := make([]*httptest.ResponseRecorder, len(singles))
	for i := range singles {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(singles[i]))
		recs[i] = httptest.NewRecorder()
	}
	m0 := readMem()
	for i := range reqs {
		b.serveH.ServeHTTP(recs[i], reqs[i])
	}
	alloc, _ := m0.since()
	b.m["server.alloc_kb_per_req"] = alloc * 1024 / float64(len(reqs))
	for _, rec := range recs {
		b.op(status(rec))
	}
}

// scanCounts reads the engine's candidate-cluster scan counters from its
// metrics registry: exact scans, and scans pruned by any cascade tier.
func scanCounts(reg *obs.Registry) (exact, pruned float64) {
	for labels, v := range readCounters(reg, "alid_assign_cluster_scans_total") {
		if strings.Contains(labels, `tier="exact"`) {
			exact += v
		} else {
			pruned += v
		}
	}
	return exact, pruned
}

// readCounters returns every sample of one metric family from the
// registry's text exposition, keyed by its label set.
func readCounters(reg *obs.Registry, family string) map[string]float64 {
	out := map[string]float64{}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		fam, labels, _ := strings.Cut(name, "{")
		if fam != family {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[labels] = v
		}
	}
	return out
}
