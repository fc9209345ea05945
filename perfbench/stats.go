package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value (mean of the two middle ones for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between closest
// ranks, on a sorted copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memSample is a point-in-time reading of the Go runtime's cumulative
// allocation and GC counters.
type memSample struct {
	alloc uint64
	gcs   uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

// since returns the MiB allocated and GC cycles run after s.
func (s memSample) since() (allocMiB float64, gcs float64) {
	now := readMem()
	return float64(now.alloc-s.alloc) / (1 << 20), float64(now.gcs - s.gcs)
}

// describe prints a timing series' shape to standard error, for tuning.
func describe(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %-14s n=%-6d min %.4g  q1 %.4g  med %.4g  q3 %.4g  max %.4g\n",
		name, len(xs), quantile(xs, 0), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 1))
}

// record adds one sample to the named timing series.
func (b *bench) record(name string, v float64) {
	b.series[name] = append(b.series[name], v)
}
