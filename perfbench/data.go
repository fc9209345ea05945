package main

import (
	"math"
	"math/rand"

	"alid"
	"alid/internal/affinity"
	"alid/internal/core"
	"alid/internal/lsh"
)

// dataset is one generated input: points, their planted labels (-1 for
// background noise), the typical intra-cluster pair distance implied by the
// generator's own parameters, and the affinity such a pair should get. The
// benchmark never samples the points to tune the kernel, so the
// configuration is a pure function of the seed.
type dataset struct {
	d        int
	pts      [][]float64
	labels   []int
	scale    float64
	affinity float64
}

// source produces an endless, seeded sequence of points from one planted
// distribution; the base dataset and the stream batches are both drawn from
// it, so streamed points land in the clusters the engine already knows.
type source struct {
	rng    *rand.Rand
	d      int
	means  [][]float64
	stds   [][]float64 // per-cluster per-axis standard deviation
	noise  float64     // share of background points
	lo, hi float64     // background box
	next   int         // round-robin cluster cursor
	drawn  int         // points drawn so far
	scale  float64     // typical intra-cluster pair distance
	// affinity is what a pair at the typical distance gets. Below about
	// 0.97 ALID splits large clusters into a dense core and leftovers;
	// low-dimensional blobs, whose distances concentrate less, need 0.99.
	affinity float64
}

// mixtureSource is the Section 5.2 generator: 20 Gaussian components in
// d=100 with per-axis variance drawn from [0,10], three pairs of means
// forced close (partially overlapping clusters), and uniform background
// noise over an enlarged box. The noise share is the η-regime's at size n:
// the 20 clusters hold n^0.9 points together, noise the rest.
func mixtureSource(seed int64, n int) *source {
	rng := rand.New(rand.NewSource(seed))
	const d, k, side = 100, 20, 100.0
	noise := 1 - math.Pow(float64(n), 0.9)/float64(n)
	s := &source{rng: rng, d: d, lo: -10, hi: side + 10, noise: noise, affinity: 0.97}
	for c := 0; c < k; c++ {
		m := make([]float64, d)
		for j := range m {
			m[j] = rng.Float64() * side
		}
		s.means = append(s.means, m)
	}
	for p := 0; p < 3; p++ {
		a, b := s.means[2*p], s.means[2*p+1]
		for j := range b {
			b[j] = a[j] + rng.NormFloat64()*3
		}
	}
	var intra []float64
	for c := 0; c < k; c++ {
		st := make([]float64, d)
		v := 0.0
		for j := range st {
			st[j] = math.Sqrt(rng.Float64() * 10)
			v += st[j] * st[j]
		}
		s.stds = append(s.stds, st)
		intra = append(intra, math.Sqrt(2*v))
	}
	s.scale = median(intra)
	return s
}

// blobSource is the serving data shape: 50 well-separated isotropic blobs
// (σ=0.3) with centers uniform in [0,40]^16 and uniform background noise.
func blobSource(seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	const d, k, sigma = 16, 50, 0.3
	s := &source{rng: rng, d: d, lo: 0, hi: 40, noise: 0.1, scale: sigma * math.Sqrt(2*d), affinity: 0.99}
	for c := 0; c < k; c++ {
		m := make([]float64, d)
		st := make([]float64, d)
		for j := range m {
			m[j] = rng.Float64() * 40
			st[j] = sigma
		}
		s.means = append(s.means, m)
		s.stds = append(s.stds, st)
	}
	return s
}

// draw returns the next n points with labels. Cluster points cycle over the
// components, so every batch touches every cluster; noise points are spread
// evenly through the sequence at exactly the source's noise share.
func (s *source) draw(n int) *dataset {
	ds := &dataset{d: s.d, scale: s.scale, affinity: s.affinity, pts: make([][]float64, n), labels: make([]int, n)}
	for i := range ds.pts {
		p := make([]float64, s.d)
		k := float64(s.drawn)
		s.drawn++
		if math.Floor((k+1)*s.noise) > math.Floor(k*s.noise) {
			for j := range p {
				p[j] = s.lo + s.rng.Float64()*(s.hi-s.lo)
			}
			ds.labels[i] = -1
		} else {
			c := s.next
			s.next = (s.next + 1) % len(s.means)
			for j := range p {
				p[j] = s.means[c][j] + s.rng.NormFloat64()*s.stds[c][j]
			}
			ds.labels[i] = c
		}
		ds.pts[i] = p
	}
	return ds
}

// flat returns the points in row-major form.
func (ds *dataset) flat() []float64 {
	out := make([]float64, 0, len(ds.pts)*ds.d)
	for _, p := range ds.pts {
		out = append(out, p...)
	}
	return out
}

// kernelScale is the kernel rule: a pair at the generator's typical
// intra-cluster distance gets the dataset's target affinity.
func (ds *dataset) kernelScale() float64 { return -math.Log(ds.affinity) / ds.scale }

// publicConfig is the detection configuration through the public API. The
// LSH segment is eight typical distances wide, so co-cluster points collide
// across the 8 tables of 12 projections with high probability. Parallelism
// stays 0: every layer runs serially, so a 2-cpu host measures the
// algorithm, not the scheduler.
func publicConfig(ds *dataset) alid.Config {
	cfg := alid.DefaultConfig()
	cfg.KernelScale = ds.kernelScale()
	cfg.LSHSegment = 8 * ds.scale
	return cfg
}

// coreConfig is the same configuration for the engine and stream layers.
func coreConfig(ds *dataset) core.Config {
	p := publicConfig(ds)
	return core.Config{
		Kernel:           affinity.Kernel{K: p.KernelScale, P: p.NormOrder},
		LSH:              lsh.Config{Projections: p.LSHProjections, Tables: p.LSHTables, R: p.LSHSegment, Seed: p.Seed},
		Delta:            p.Delta,
		MaxOuter:         p.MaxOuter,
		MaxLID:           p.MaxLID,
		Tol:              p.Tolerance,
		DensityThreshold: p.DensityThreshold,
		MinClusterSize:   p.MinClusterSize,
	}
}
