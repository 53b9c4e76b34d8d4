package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestTridiagMulVec(t *testing.T) {
	// [2 1 0]
	// [1 2 1]
	// [0 1 2]
	tr := NewTridiag(3)
	tr.Diag[0], tr.Diag[1], tr.Diag[2] = 2, 2, 2
	tr.Sub[1], tr.Sub[2] = 1, 1
	tr.Sup[0], tr.Sup[1] = 1, 1
	dst := make([]float64, 3)
	tr.MulVec(dst, []float64{1, 2, 3})
	want := []float64{4, 8, 8}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("MulVec[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}

func TestTridiagSolveKnown(t *testing.T) {
	tr := NewTridiag(3)
	tr.Diag[0], tr.Diag[1], tr.Diag[2] = 2, 2, 2
	tr.Sub[1], tr.Sub[2] = 1, 1
	tr.Sup[0], tr.Sup[1] = 1, 1
	x, err := SolveTridiag(tr, []float64{4, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestTridiagSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		tr := NewTridiag(n)
		for i := 0; i < n; i++ {
			// Strictly diagonally dominant: guaranteed nonsingular.
			tr.Diag[i] = 4 + rng.Float64()
			if i > 0 {
				tr.Sub[i] = rng.NormFloat64()
			}
			if i < n-1 {
				tr.Sup[i] = rng.NormFloat64()
			}
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		rhs := make([]float64, n)
		tr.MulVec(rhs, want)
		got, err := SolveTridiag(tr, rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTridiagSolveInPlaceAlias(t *testing.T) {
	tr := NewTridiag(4)
	for i := 0; i < 4; i++ {
		tr.Diag[i] = 3
	}
	tr.Sub[1], tr.Sub[2], tr.Sub[3] = -1, -1, -1
	tr.Sup[0], tr.Sup[1], tr.Sup[2] = -1, -1, -1
	s, err := tr.Factor()
	if err != nil {
		t.Fatal(err)
	}
	rhs := []float64{1, 2, 3, 4}
	ref := make([]float64, 4)
	s.Solve(ref, rhs)
	// Aliased solve must give the same answer.
	s.Solve(rhs, rhs)
	for i := range ref {
		if rhs[i] != ref[i] {
			t.Errorf("aliased solve differs at %d: %g vs %g", i, rhs[i], ref[i])
		}
	}
}

func TestTridiagZeroPivot(t *testing.T) {
	tr := NewTridiag(2)
	tr.Diag[0] = 0
	tr.Diag[1] = 1
	if _, err := tr.Factor(); err == nil {
		t.Error("expected error for singular leading pivot")
	}
}

func TestTridiagEmptyAndSingle(t *testing.T) {
	empty := NewTridiag(0)
	if _, err := SolveTridiag(empty, nil); err != nil {
		t.Fatalf("empty solve: %v", err)
	}
	one := NewTridiag(1)
	one.Diag[0] = 4
	x, err := SolveTridiag(one, []float64{8})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 {
		t.Errorf("1x1 solve = %g, want 2", x[0])
	}
}

func TestShiftedScaled(t *testing.T) {
	tr := NewTridiag(2)
	tr.Diag[0], tr.Diag[1] = 1, 2
	tr.Sup[0], tr.Sub[1] = 3, 4
	sh := tr.Shifted(10)
	if sh.Diag[0] != 11 || sh.Diag[1] != 12 || sh.Sup[0] != 3 || sh.Sub[1] != 4 {
		t.Errorf("Shifted wrong: %+v", sh)
	}
	sc := tr.Scaled(2)
	if sc.Diag[0] != 2 || sc.Sup[0] != 6 || sc.Sub[1] != 8 {
		t.Errorf("Scaled wrong: %+v", sc)
	}
	// Originals untouched.
	if tr.Diag[0] != 1 || tr.Sup[0] != 3 {
		t.Error("Shifted/Scaled mutated receiver")
	}
}

func TestGramTridiagMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(10)
		b := randomCSR(rng, rows, cols, 0.4)
		w := make([]float64, cols)
		for i := range w {
			w[i] = 0.5 + rng.Float64()
		}
		tr := GramTridiag(b, w)
		d := b.Dense()
		gram := func(i, j int) float64 {
			s := 0.0
			for k := 0; k < cols; k++ {
				s += d[i][k] * w[k] * d[j][k]
			}
			return s
		}
		for i := 0; i < rows; i++ {
			if math.Abs(tr.Diag[i]-gram(i, i)) > 1e-12 {
				t.Fatalf("diag[%d] = %g, want %g", i, tr.Diag[i], gram(i, i))
			}
			if i > 0 && math.Abs(tr.Sub[i]-gram(i, i-1)) > 1e-12 {
				t.Fatalf("sub[%d] = %g, want %g", i, tr.Sub[i], gram(i, i-1))
			}
			if i < rows-1 && math.Abs(tr.Sup[i]-gram(i, i+1)) > 1e-12 {
				t.Fatalf("sup[%d] = %g, want %g", i, tr.Sup[i], gram(i, i+1))
			}
		}
	}
}

func TestGramTridiagNilWeights(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 0, -1)
	b.Add(0, 1, 1)
	b.Add(1, 1, -1)
	b.Add(1, 2, 1)
	m := b.Build()
	tr := GramTridiag(m, nil)
	// Row dot products: diag = 2, off-diag = -1 (shared column 1).
	if tr.Diag[0] != 2 || tr.Diag[1] != 2 {
		t.Errorf("diag = %v, want [2 2]", tr.Diag)
	}
	if tr.Sub[1] != -1 || tr.Sup[0] != -1 {
		t.Errorf("off-diag = %g/%g, want -1", tr.Sub[1], tr.Sup[0])
	}
}

func TestGramTridiagApplyMatchesDiagonalCase(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(10)
		b := randomCSR(rng, rows, cols, 0.4)
		w := make([]float64, cols)
		for i := range w {
			w[i] = 0.5 + rng.Float64()
		}
		want := GramTridiag(b, w)
		got := GramTridiagApply(b, func(idx []int, val []float64, emit func(int, float64)) {
			for k, j := range idx {
				emit(j, w[j]*val[k])
			}
		})
		for i := 0; i < rows; i++ {
			if math.Abs(got.Diag[i]-want.Diag[i]) > 1e-12 ||
				math.Abs(got.Sub[i]-want.Sub[i]) > 1e-12 ||
				math.Abs(got.Sup[i]-want.Sup[i]) > 1e-12 {
				t.Fatalf("trial %d row %d: apply version differs", trial, i)
			}
		}
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
	}
	return v
}

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d: %g (%x) vs %g (%x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// segmentedTridiag builds a block tridiagonal matrix out of nBlocks
// independent diagonally dominant blocks — the shape of the legalizer's
// Schur matrix D, whose blocks are the per-placement-row constraint chains.
func segmentedTridiag(rng *rand.Rand, nBlocks, blockLen int) *Tridiag {
	n := nBlocks * blockLen
	tr := NewTridiag(n)
	for i := 0; i < n; i++ {
		tr.Diag[i] = 4 + rng.Float64()
		if i%blockLen != 0 && i > 0 {
			v := rng.NormFloat64()
			tr.Sub[i] = v
			tr.Sup[i-1] = v
		}
	}
	return tr
}

func TestTridiagSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	tr := segmentedTridiag(rng, 7, 13)
	s, err := tr.Factor()
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) != 8 {
		t.Fatalf("got %d boundaries (%v), want 8", len(segs), segs)
	}
	for b := 0; b < 7; b++ {
		if segs[b] != b*13 {
			t.Fatalf("segment %d starts at %d, want %d", b, segs[b], b*13)
		}
	}
	if segs[7] != 7*13 {
		t.Fatalf("terminator %d, want %d", segs[7], 7*13)
	}
}

// TestTridiagSolvePMatchesSerial checks that the segmented solve is
// bit-identical to the whole-matrix Solve, also with dst aliasing rhs, on
// shapes with one block, many short blocks, 1×1 blocks, and a count that is
// not a multiple of the four-way interleave.
func TestTridiagSolvePMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, shape := range []struct{ blocks, blockLen int }{
		{1, 50}, {12, 31}, {40, 25}, {100, 1}, {3, 400},
	} {
		tr := segmentedTridiag(rng, shape.blocks, shape.blockLen)
		s, err := tr.Factor()
		if err != nil {
			t.Fatal(err)
		}
		n := shape.blocks * shape.blockLen
		rhs := randVec(rng, n)
		want := make([]float64, n)
		s.Solve(want, rhs)
		got := make([]float64, n)
		s.SolveSegmented(got, rhs)
		sameBits(t, "SolveSegmented", got, want)
		aliased := append([]float64(nil), rhs...)
		s.SolveSegmented(aliased, aliased)
		sameBits(t, "SolveSegmented aliased", aliased, want)
	}
}

// TestTridiagSolvePIsCorrect checks the segmented solve against the matrix:
// the residual of its solution must be small on every shape.
func TestTridiagSolvePIsCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, shape := range []struct{ blocks, blockLen int }{
		{1, 50}, {12, 31}, {40, 25}, {100, 1}, {3, 400},
	} {
		tr := segmentedTridiag(rng, shape.blocks, shape.blockLen)
		s, err := tr.Factor()
		if err != nil {
			t.Fatal(err)
		}
		n := shape.blocks * shape.blockLen
		rhs := randVec(rng, n)
		x := make([]float64, n)
		s.SolveSegmented(x, rhs)
		check := make([]float64, n)
		tr.MulVec(check, x)
		for i := range check {
			if math.Abs(check[i]-rhs[i]) > 1e-8*(1+math.Abs(rhs[i])) {
				t.Fatalf("%v: residual too large at %d: %g vs %g", shape, i, check[i], rhs[i])
			}
		}
	}
}
