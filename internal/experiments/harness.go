// Package experiments wires the substrates together into the paper's
// experiments: one entry point per table and figure (see DESIGN.md's
// per-experiment index). The cmd/ binaries and the repository-level
// benchmarks are thin wrappers around this package.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"pjds/internal/gpu"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

// Seed is the deterministic seed used by all experiments.
const Seed = 2012 // the paper's year

// DefaultScale is the matrix scale used when nothing is specified:
// small enough for quick runs, large enough for stable statistics.
// Override with -scale on the binaries or PJDS_SCALE for the benches;
// scale 1 reproduces the published sizes (subject to the per-matrix
// DefaultScale memory gate, see DESIGN.md).
const DefaultScale = 0.1

// ScaleFromEnv returns the benchmark scale: PJDS_SCALE if set, else
// DefaultScale.
func ScaleFromEnv() float64 {
	if v := os.Getenv("PJDS_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 && f <= 1 {
			return f
		}
	}
	return DefaultScale
}

// EffectiveScale combines a requested scale with a matrix's memory
// gate: the result never exceeds the matrix's DefaultScale·1 budget
// relative to full size (UHBR caps at 0.25 unless explicitly forced
// with a negative request, which means |request| exactly).
func EffectiveScale(tm matgen.TestMatrix, requested float64) float64 {
	if requested < 0 {
		return -requested
	}
	if requested == 0 {
		requested = DefaultScale
	}
	if requested > 1 {
		requested = 1
	}
	if requested > tm.DefaultScale {
		return tm.DefaultScale
	}
	return requested
}

// cache shares generated matrices across experiments within one
// process (benchmarks reuse them heavily).
var cache struct {
	mu sync.Mutex
	m  map[string]*matrix.CSR[float64]
}

// Matrix returns the named paper matrix at the given requested scale,
// generating it on first use. With PJDS_CACHE_DIR set, generated
// matrices are also persisted in the fast binary container, so the
// multi-hundred-million-non-zero instances are built once per machine.
func Matrix(name string, requested float64) (*matrix.CSR[float64], error) {
	tm, err := matgen.ByName(name)
	if err != nil {
		return nil, err
	}
	scale := EffectiveScale(tm, requested)
	key := fmt.Sprintf("%s@%g", tm.Name, scale)
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if cache.m == nil {
		cache.m = map[string]*matrix.CSR[float64]{}
	}
	if m, ok := cache.m[key]; ok {
		return m, nil
	}
	if m, ok := loadFromDisk(key); ok {
		cache.m[key] = m
		return m, nil
	}
	m := tm.Generate(scale, Seed)
	cache.m[key] = m
	saveToDisk(key, m)
	return m, nil
}

// diskPath maps a cache key to its file, "" when the disk cache is
// disabled.
func diskPath(key string) string {
	dir := os.Getenv("PJDS_CACHE_DIR")
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, fmt.Sprintf("seed%d-%s.csrbin", Seed, key))
}

func loadFromDisk(key string) (*matrix.CSR[float64], bool) {
	path := diskPath(key)
	if path == "" {
		return nil, false
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	m, err := matrix.ReadBinary(f)
	if err != nil {
		return nil, false // stale or corrupt cache entries are ignored
	}
	return m, true
}

func saveToDisk(key string, m *matrix.CSR[float64]) {
	path := diskPath(key)
	if path == "" {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	if err := matrix.WriteBinary(f, m); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return
	}
	os.Rename(tmp, path)
}

// oneShot returns kernel run options with a plan cache of their own.
// A driver's plans are one-shot: compiled into the package-default
// cache, they would keep every format the driver builds (and, for the
// CSR kernels, the cached matrix itself) reachable after DropCached.
func oneShot() gpu.RunOptions { return gpu.RunOptions{Plans: gpu.NewPlanCache(0)} }

// DropCached evicts a cached matrix (memory management for the
// full-scale runs).
func DropCached(name string, requested float64) {
	tm, err := matgen.ByName(name)
	if err != nil {
		return
	}
	key := fmt.Sprintf("%s@%g", tm.Name, EffectiveScale(tm, requested))
	cache.mu.Lock()
	defer cache.mu.Unlock()
	delete(cache.m, key)
}
