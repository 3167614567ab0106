package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/kernels"
)

// sortNearest is the reference selection: sort every index by
// (distance, index) and keep the first k.
func sortNearest(distances []float32, k int) []int {
	idx := make([]int, len(distances))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if distances[idx[a]] != distances[idx[b]] {
			return distances[idx[a]] < distances[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

func checkNearest(t *testing.T, name string, distances []float32, k int) {
	t.Helper()
	got := nearest(kernels.F32ToWords(distances), k)
	want := sortNearest(distances, k)
	if !slices.Equal(got, want) {
		t.Errorf("%s: nearest(n=%d, k=%d) = %v, want %v", name, len(distances), k, got, want)
	}
}

func TestNearestMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inf := float32(math.Inf(1))
	cases := map[string][]float32{
		"empty":   nil,
		"single":  {3},
		"zeros":   make([]float32, 300),
		"infs":    {inf, inf, 2, inf, 1, inf, inf},
		"signed0": {0, float32(math.Copysign(0, -1)), 0, 1, float32(math.Copysign(0, -1))},
		"desc":    {9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
	}
	// Heavy ties: few distinct values over many records.
	ties := make([]float32, 5000)
	for i := range ties {
		ties[i] = float32(rng.Intn(4))
	}
	cases["ties"] = ties
	// Long all-zero runs, as sampled dispatches leave in unexecuted groups,
	// around executed stretches of real distances.
	runs := make([]float32, 4096)
	for i := range runs {
		if (i/256)%3 == 1 {
			runs[i] = rng.Float32() * 90
		}
	}
	cases["zero-runs"] = runs
	cases["zero-runs-tail"] = append(bench.RandomF32(3, 1000, 0, 90), make([]float32, 700)...)
	random := bench.RandomF32(11, 10000, 0, 90)
	random[5000] = inf
	cases["random"] = random

	for name, d := range cases {
		for _, k := range []int{0, 1, 2, K, 17, len(d), len(d) + 3} {
			checkNearest(t, name, d, k)
		}
	}
}

// FuzzNearest checks the one-pass selection against the sort reference on
// arbitrary distance words. NaN never comes out of the distance kernel and
// has no total order under the reference's comparison, so it is excluded.
func FuzzNearest(f *testing.F) {
	f.Add([]byte{}, uint8(K))
	f.Add(make([]byte, 64), uint8(K))
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0x3f, 0, 0, 0, 0, 0, 0, 0x80, 0x3f}, uint8(2))
	f.Add(make([]byte, 12), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		distances := make([]float32, len(data)/4)
		for i := range distances {
			distances[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			if distances[i] != distances[i] {
				return
			}
		}
		checkNearest(t, "fuzz", distances, int(k))
	})
}

var sinkNearest []int

// BenchmarkNearest times the host-side K-nearest selection over the 8M-record
// workload's downloaded distance words.
func BenchmarkNearest(b *testing.B) {
	const n = 8 << 20
	locations := bench.RandomF32(42, 2*n, 0, 90)
	words := make(kernels.Words, n)
	for i := range words {
		dlat, dlng := locations[2*i]-30, locations[2*i+1]-59
		words[i] = math.Float32bits(float32(math.Sqrt(float64(dlat*dlat + dlng*dlng))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNearest = nearest(words, K)
	}
}
