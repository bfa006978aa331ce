package tensor

import (
	"math/rand"
	"testing"
)

// fillInt16 fills a slice with quantized-range values: a mix of zeros,
// small values, and full-range ±32767 extremes so accumulator growth
// and the inert-zero property both get exercised.
func fillInt16(rng *rand.Rand, s []int16) {
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = int16(rng.Intn(7) - 3)
		case 2:
			if rng.Intn(2) == 0 {
				s[i] = 32767
			} else {
				s[i] = -32767
			}
		default:
			s[i] = int16(rng.Intn(65535) - 32767)
		}
	}
}

func int32Equal(a, b []int32) (int, bool) {
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// checkShapeInt16 runs the packed int16 path against the reference
// loops for one (m, k, n) shape and fails on the first difference —
// exact int32 agreement, no tolerance.
func checkShapeInt16(t *testing.T, rng *rand.Rand, m, k, n int) {
	t.Helper()
	a := make([]int16, m*k)
	b := make([]int16, k*n)
	fillInt16(rng, a)
	fillInt16(rng, b)

	got := make([]int32, m*n)
	want := make([]int32, m*n)

	MatMulInt16(got, a, b, m, k, n)
	refMatMulInt16(want, a, b, m, k, n)
	if i, ok := int32Equal(got, want); !ok {
		t.Fatalf("MatMulInt16 m=%d k=%d n=%d: element %d differs: %d vs %d",
			m, k, n, i, got[i], want[i])
	}

	// Packed path explicitly (MatMulInt16 may take the small-shape
	// fallback), over a quad-aligned row split like a worker fan-out
	// would produce.
	ap := make([]int16, PackASizeInt16(m, k))
	bp := make([]int16, PackBSizeInt16(k, n))
	PackAInt16(ap, a, m, k)
	PackBInt16(bp, b, k, n)
	mid := (m / 2 / GEMMRowGrain) * GEMMRowGrain
	for i := range got {
		got[i] = -0x7badbeef
	}
	MatMulPackedInt16(got, ap, bp, m, k, n, 0, mid)
	MatMulPackedInt16(got, ap, bp, m, k, n, mid, m)
	if i, ok := int32Equal(got, want); !ok {
		t.Fatalf("MatMulPackedInt16 m=%d k=%d n=%d split@%d: element %d differs: %d vs %d",
			m, k, n, mid, i, got[i], want[i])
	}
}

// eachKernelPathInt16 runs fn once per int16 microkernel implementation
// available on this host (portable Go, and AVX2 when present).
func eachKernelPathInt16(t *testing.T, fn func(t *testing.T)) {
	avx2 := useAVX2
	defer func() { useAVX2 = avx2 }()
	useAVX2 = false
	t.Run("go", fn)
	if avx2 {
		useAVX2 = true
		t.Run("avx2", fn)
	}
}

// TestInt16KernelsExact is the int16 analogue of the float
// bit-identity property: across randomized shapes including ragged
// tails, the packed kernels must agree with the reference loops
// exactly, on every kernel path.
func TestInt16KernelsExact(t *testing.T) {
	eachKernelPathInt16(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		shapes := [][3]int{
			{1, 1, 1}, {1, 7, 1}, {4, 4, 8}, {8, 16, 16},
			{5, 9, 6}, {3, 5, 2}, {4, 1, 9}, {7, 13, 11},
			{16, 25, 196}, {9, 25, 196}, {12, 75, 64}, {1, 400, 10},
			{8, 600, 24}, {4, 1030, 16}, {5, 1025, 9},
		}
		for _, s := range shapes {
			checkShapeInt16(t, rng, s[0], s[1], s[2])
		}
		for iter := 0; iter < 50; iter++ {
			m := 1 + rng.Intn(24)
			k := 1 + rng.Intn(48)
			n := 1 + rng.Intn(48)
			checkShapeInt16(t, rng, m, k, n)
		}
	})
}

// TestInt16AccumulatorExtremes drives the accumulators with worst-case
// magnitude products (±32767²) long enough to wrap int32, pinning that
// packed and reference paths wrap identically — the determinism
// contract holds even outside the range a calibrated network produces.
func TestInt16AccumulatorExtremes(t *testing.T) {
	eachKernelPathInt16(t, func(t *testing.T) {
		m, k, n := 4, 4096, 8
		a := make([]int16, m*k)
		b := make([]int16, k*n)
		for i := range a {
			a[i] = 32767
		}
		for i := range b {
			if (i/n)%2 == 0 {
				b[i] = 32767
			} else {
				b[i] = -32767
			}
		}
		b[0] = -32767 // break the alternation so sums drift and wrap
		got := make([]int32, m*n)
		want := make([]int32, m*n)
		MatMulInt16(got, a, b, m, k, n)
		refMatMulInt16(want, a, b, m, k, n)
		if i, ok := int32Equal(got, want); !ok {
			t.Fatalf("wraparound element %d differs: %d vs %d", i, got[i], want[i])
		}
	})
}

// TestPackRangesInt16MatchFull checks the int16 range packers are pure
// tilings of the full packs.
func TestPackRangesInt16MatchFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kn := range [][2]int{{5, 7}, {9, 16}, {3, 1}, {25, 196}, {13, 40}, {1, 9}} {
		k, n := kn[0], kn[1]
		b := make([]int16, k*n)
		fillInt16(rng, b)
		full := make([]int16, PackBSizeInt16(k, n))
		PackBInt16(full, b, k, n)
		split := make([]int16, PackBSizeInt16(k, n))
		np := PackPanels(n)
		mid := np / 2
		PackBRangeInt16(split, b, k, n, 0, mid)
		PackBRangeInt16(split, b, k, n, mid, np)
		for i := range full {
			if split[i] != full[i] {
				t.Fatalf("PackBRangeInt16 k=%d n=%d: element %d differs", k, n, i)
			}
		}

		m := n // reuse the shape as an m×k A operand
		a := make([]int16, m*k)
		fillInt16(rng, a)
		fullA := make([]int16, PackASizeInt16(m, k))
		PackAInt16(fullA, a, m, k)
		splitA := make([]int16, PackASizeInt16(m, k))
		midRow := (m / 2 / GEMMRowGrain) * GEMMRowGrain
		PackARangeInt16(splitA, a, m, k, 0, midRow)
		PackARangeInt16(splitA, a, m, k, midRow, m)
		for i := range fullA {
			if splitA[i] != fullA[i] {
				t.Fatalf("PackARangeInt16 m=%d k=%d: element %d differs", m, k, i)
			}
		}
	}
}

// TestMatVecAccInt32Exact pins the quantized FC kernel to the naive
// bias-seeded row dot.
func TestMatVecAccInt32Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 80; iter++ {
		m := 1 + rng.Intn(20)
		k := 1 + rng.Intn(40)
		a := make([]int16, m*k)
		x := make([]int16, k)
		fillInt16(rng, a)
		fillInt16(rng, x)
		seed := make([]int32, m)
		for i := range seed {
			seed[i] = rng.Int31() - 1<<30
		}
		got := append([]int32(nil), seed...)
		MatVecAccInt32(got, a, x, m, k)
		want := append([]int32(nil), seed...)
		for o := 0; o < m; o++ {
			s := want[o]
			row := a[o*k : (o+1)*k]
			for i, wv := range row {
				s += int32(wv) * int32(x[i])
			}
			want[o] = s
		}
		if i, ok := int32Equal(got, want); !ok {
			t.Fatalf("MatVecAccInt32 m=%d k=%d: element %d differs", m, k, i)
		}
	}
}

// TestIm2ColInt16MatchesFloat pins the generic im2col instantiations
// to each other: quantized input expanded with Im2ColInt16 must place
// exactly the values the float expansion places.
func TestIm2ColInt16MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := ConvGeom{InC: 3, InH: 9, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1}.Infer()
	in16 := make([]int16, g.InC*g.InH*g.InW)
	fillInt16(rng, in16)
	inF := make([]float32, len(in16))
	for i, v := range in16 {
		inF[i] = float32(v)
	}
	rows := g.InC * g.KH * g.KW
	cols := g.OutH * g.OutW
	col16 := make([]int16, rows*cols)
	colF := make([]float32, rows*cols)
	Im2ColInt16(col16, in16, g)
	Im2Col(colF, inF, g)
	for i := range col16 {
		if float32(col16[i]) != colF[i] {
			t.Fatalf("element %d: int16 %d vs float %g", i, col16[i], colF[i])
		}
	}
}

// FuzzInt16GEMM drives packed-vs-reference exact agreement from fuzzed
// shapes and seeds, on every kernel path the host can run.
func FuzzInt16GEMM(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(8), int64(1))
	f.Add(uint8(5), uint8(9), uint8(6), int64(2))
	f.Add(uint8(1), uint8(31), uint8(17), int64(3))
	f.Add(uint8(23), uint8(2), uint8(41), int64(4))
	f.Add(uint8(4), uint8(255), uint8(8), int64(5))
	f.Fuzz(func(t *testing.T, mm, kk, nn uint8, seed int64) {
		m := int(mm%32) + 1
		k := int(kk)*4 + 1 // reach past the KC block boundary
		n := int(nn%64) + 1
		eachKernelPathInt16(t, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			checkShapeInt16(t, rng, m, k, n)
		})
	})
}

// alexShapes are AlexNet/CaffeNet conv im2col products (OutC ×
// InC·KH·KW × OutH·OutW), the shapes the int16 ≥ 2x float32 packed
// kernel comparison is measured on.
var alexShapes = []struct {
	name    string
	m, k, n int
}{
	{"AlexConv2_256x2400x729", 256, 2400, 729},
	{"AlexConv3_384x2304x169", 384, 2304, 169},
}

func BenchmarkGEMMInt16Blocked(b *testing.B) {
	shapes := append([]struct {
		name    string
		m, k, n int
	}{{"Square256", 256, 256, 256}}, alexShapes...)
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			a := make([]int16, s.m*s.k)
			bb := make([]int16, s.k*s.n)
			c := make([]int32, s.m*s.n)
			fillInt16(rng, a)
			fillInt16(rng, bb)
			b.SetBytes(int64(2 * s.m * s.k * s.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInt16(c, a, bb, s.m, s.k, s.n)
			}
		})
	}
}

// BenchmarkGEMMFloat32Blocked is the float32 packed-path twin of the
// AlexNet-shaped int16 benchmarks above: dividing the two ns/op
// figures gives the quantized speedup.
func BenchmarkGEMMFloat32Blocked(b *testing.B) {
	for _, s := range alexShapes {
		b.Run(s.name, func(b *testing.B) {
			benchGEMM(b, s.m, s.k, s.n, func(c, a, bb []float32) {
				MatMul(c, a, bb, s.m, s.k, s.n)
			})
		})
	}
}
