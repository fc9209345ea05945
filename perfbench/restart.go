package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"alid"
	"alid/internal/core"
	"alid/internal/engine"
	"alid/internal/snapshot"
)

// restartStage is alidd's restart path: SaveFile the serve engine, then a
// cold start from the file through engine.LoadFileOpts (decode plus index
// and engine rebuild), repeated.
type restartStage struct {
	b          *bench
	path       string
	loadAllocs []float64
}

func (b *bench) newRestart() *restartStage {
	return &restartStage{b: b, path: filepath.Join(b.dir, "engine.snap")}
}

func (s *restartStage) step() {
	b := s.b
	sp := b.tr.begin("engine.SaveFile", 0)
	t0 := time.Now()
	err := b.serveEng.SaveFile(s.path)
	save := time.Since(t0)
	b.tr.end(sp)
	if !b.op(err) {
		return
	}
	var m0 memSample
	if b.tr != nil {
		m0 = readMem()
	}
	sp = b.tr.begin("engine.LoadFileOpts", 0)
	t0 = time.Now()
	eng, err := engine.LoadFileOpts(s.path, engine.LoadOptions{})
	load := time.Since(t0)
	b.tr.end(sp)
	if !b.op(err) {
		return
	}
	if b.tr != nil {
		alloc, _ := m0.since()
		s.loadAllocs = append(s.loadAllocs, alloc)
	}
	b.record("save", save.Seconds())
	b.record("load", load.Seconds())
	b.op(eng.Close())
	if b.tr != nil {
		b.restartLayers(s.path)
	}
}

func (s *restartStage) finish() {
	b := s.b
	b.m["save_s"] = median(b.series["save"])
	b.m["load_s"] = median(b.series["load"])
	if b.tr != nil {
		b.m["snapshot.alloc_mb_per_load"] = median(s.loadAllocs)
		b.m["snapshot.encode_s"] = median(b.tr.durations("snapshot.Encode"))
		b.m["snapshot.decode_s"] = median(b.tr.durations("snapshot.Read"))
		b.m["snapshot.sync_s"] = b.m["save_s"] - b.m["snapshot.encode_s"]
		b.m["snapshot.restore_s"] = b.m["load_s"] - b.m["snapshot.decode_s"]
	}
	// The check loads the last file once more, after the serve stage has
	// read the engine's scan counters: its assigns must not count there.
	eng, err := engine.LoadFileOpts(s.path, engine.LoadOptions{})
	if b.op(err) {
		b.checkRestart(eng, s.path)
		b.op(eng.Close())
	}
	os.Remove(s.path)
}

// checkRestart verifies the cold start: the loaded engine serves the same
// clusters and the same assign answers as the saved one, and encoding it
// again reproduces the file byte for byte.
func (b *bench) checkRestart(loaded *engine.Engine, path string) {
	saved, err := os.ReadFile(path)
	if !b.op(err) {
		return
	}
	b.m["snapshot_mb"] = float64(len(saved)) / (1 << 20)
	b.fingerprint["snapshot"] = fmt.Sprintf("%x", sha256.Sum256(saved))
	if digestCore(loaded.Clusters()) != digestCore(b.serveEng.Clusters()) {
		b.problem("restart: loaded clusters differ from the saved engine's")
	}
	for i, q := range b.queries {
		want, err1 := b.serveEng.Assign(q)
		got, err2 := loaded.Assign(q)
		if !b.op(err1) || !b.op(err2) {
			continue
		}
		if got.Cluster != want.Cluster || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
			b.problem("restart: query %d answers %d %v after load, %d %v before", i, got.Cluster, got.Score, want.Cluster, want.Score)
			break
		}
	}
	var again bytes.Buffer
	if b.op(loaded.WriteSnapshot(&again)) && !bytes.Equal(again.Bytes(), saved) {
		b.problem("restart: re-encoding the loaded engine gives %d bytes that differ from the %d saved", again.Len(), len(saved))
	}
}

// restartLayers splits save and load at the codec boundary: encoding alone
// (to io.Discard, no file or fsync) and decoding alone (from memory, no
// engine or index rebuild).
func (b *bench) restartLayers(path string) {
	sp := b.tr.begin("snapshot.Encode", 0)
	err := b.serveEng.WriteSnapshot(io.Discard)
	b.tr.end(sp)
	b.op(err)
	data, err := os.ReadFile(path)
	if !b.op(err) {
		return
	}
	sp = b.tr.begin("snapshot.Read", 0)
	_, err = snapshot.Read(bytes.NewReader(data))
	b.tr.end(sp)
	b.op(err)
}

// digestCore fingerprints internal clusters bit for bit.
func digestCore(cls []*core.Cluster) uint64 {
	out := make([]alid.Cluster, len(cls))
	for i, c := range cls {
		out[i] = alid.Cluster{Members: c.Members, Weights: c.Weights, Density: c.Density}
	}
	return digest(out)
}
