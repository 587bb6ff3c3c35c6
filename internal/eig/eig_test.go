package eig

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// randomSymmetric builds a random dense symmetric matrix.
func randomSymmetric(n int, seed int64) *Dense {
	r := rng.New(seed)
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			a[i*n+j] = v
			a[j*n+i] = v
		}
	}
	return &Dense{N: n, A: a}
}

func TestTridiagQLKnownSpectrum(t *testing.T) {
	// The n x n tridiagonal with diagonal 2 and off-diagonal -1 has
	// eigenvalues 2 - 2 cos(k*pi/(n+1)), k = 1..n.
	n := 12
	d := make([]float64, n)
	e := make([]float64, n)
	for i := range d {
		d[i] = 2
		e[i] = -1
	}
	vals, vecs, err := TridiagQL(d, e)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(vals[k-1]-want) > 1e-10 {
			t.Fatalf("eigenvalue %d = %.12f, want %.12f", k, vals[k-1], want)
		}
	}
	// Eigenvectors: verify T v = lambda v directly.
	for k := 0; k < n; k++ {
		v := vecs[k]
		for i := 0; i < n; i++ {
			tv := d[i] * v[i]
			if i > 0 {
				tv += e[i-1] * v[i-1]
			}
			if i < n-1 {
				tv += e[i] * v[i+1]
			}
			if math.Abs(tv-vals[k]*v[i]) > 1e-9 {
				t.Fatalf("vector %d fails T v = lambda v at row %d", k, i)
			}
		}
	}
}

func TestTridiagQLMatchesJacobi(t *testing.T) {
	r := rng.New(3)
	n := 9
	d := make([]float64, n)
	e := make([]float64, n)
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		d[i] = r.NormFloat64() * 3
		e[i] = r.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a[i*n+i] = d[i]
		if i < n-1 {
			a[i*n+i+1] = e[i]
			a[(i+1)*n+i] = e[i]
		}
	}
	got, _, err := TridiagQL(d, e)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := SymEigenDense(n, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("eigenvalue %d: QL %.12f vs Jacobi %.12f", i, got[i], want[i])
		}
	}
}

func TestJacobiDiagonalizes(t *testing.T) {
	n := 8
	m := randomSymmetric(n, 11)
	vals, vecs, err := SymEigenDense(n, m.A)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if r := Residual(m, vals[k], vecs[k]); r > 1e-8 {
			t.Fatalf("pair %d residual %g", k, r)
		}
	}
	// Ascending order.
	for k := 1; k < n; k++ {
		if vals[k] < vals[k-1] {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
}

func TestLanczosOnLaplacianPath(t *testing.T) {
	// Laplacian of the path graph P_n has eigenvalues 2-2cos(pi k/n).
	n := 40
	g := graph.Path(n)
	l := sparse.Laplacian(g)
	vals, vecs, err := SmallestEigenpairs(l, 3, LanczosOptions{
		Deflate: [][]float64{ConstantVector(n)},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		want := 2 - 2*math.Cos(math.Pi*float64(k)/float64(n))
		if math.Abs(vals[k-1]-want) > 1e-7 {
			t.Fatalf("lambda_%d = %.10f, want %.10f", k+1, vals[k-1], want)
		}
		if r := Residual(l, vals[k-1], vecs[k-1]); r > 1e-6 {
			t.Fatalf("pair %d residual %g", k, r)
		}
	}
	// The Fiedler vector of a path is monotone (up to sign).
	f := vecs[0]
	sign := 1.0
	if f[0] > f[n-1] {
		sign = -1
	}
	for i := 1; i < n; i++ {
		if sign*(f[i]-f[i-1]) < -1e-9 {
			t.Fatalf("Fiedler vector of path not monotone at %d", i)
		}
	}
}

func TestLanczosMatchesDenseOracle(t *testing.T) {
	check := func(seed int64) bool {
		n := 10 + int(seed%7+7)%7*3
		m := randomSymmetric(n, seed)
		want, _, err := SymEigenDense(n, m.A)
		if err != nil {
			return false
		}
		got, vecs, err := SmallestEigenpairs(m, 2, LanczosOptions{Seed: seed})
		if err != nil {
			return false
		}
		for k := 0; k < 2; k++ {
			if math.Abs(got[k]-want[k]) > 1e-6 {
				return false
			}
			if Residual(m, got[k], vecs[k]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLanczosDisconnectedGraph(t *testing.T) {
	// Two disjoint paths: Laplacian has a 2-dim null space. After deflating
	// the constant vector, the smallest eigenvalue is 0 again (the other
	// null vector); Lanczos must survive the invariant-subspace restart.
	b := graph.NewBuilder(8)
	for i := 0; i < 3; i++ {
		b.AddEdge(i, i+1, 1)
	}
	for i := 4; i < 7; i++ {
		b.AddEdge(i, i+1, 1)
	}
	g := b.MustBuild()
	l := sparse.Laplacian(g)
	vals, _, err := SmallestEigenpairs(l, 2, LanczosOptions{
		Deflate: [][]float64{ConstantVector(8)},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]) > 1e-8 {
		t.Fatalf("smallest deflated eigenvalue = %g, want 0 (second component)", vals[0])
	}
}

func TestLanczosErrors(t *testing.T) {
	m := randomSymmetric(4, 1)
	if _, _, err := SmallestEigenpairs(m, 0, LanczosOptions{}); err == nil {
		t.Fatal("nev=0 accepted")
	}
	if _, _, err := SmallestEigenpairs(m, 5, LanczosOptions{}); err == nil {
		t.Fatal("nev>n accepted")
	}
}

func TestMinresSolvesSPD(t *testing.T) {
	check := func(seed int64) bool {
		r := rng.New(seed)
		n := 6 + int(seed%5+5)%5*4
		// SPD matrix: A = B^T B + I.
		b := randomSymmetric(n, seed)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += b.A[k*n+i] * b.A[k*n+j]
				}
				a[i*n+j] = s
			}
			a[i*n+i] += 1
		}
		m := &Dense{N: n, A: a}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		x := make([]float64, n)
		relres, _ := Minres(m, rhs, x, MinresOptions{Tol: 1e-12})
		// Verify the actual residual, not just the estimate.
		ax := make([]float64, n)
		m.MulVec(ax, x)
		diff := 0.0
		for i := range ax {
			diff += (ax[i] - rhs[i]) * (ax[i] - rhs[i])
		}
		return relres < 1e-10 && math.Sqrt(diff) < 1e-8*Norm2(rhs)*math.Sqrt(float64(n))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMinresSolvesIndefinite(t *testing.T) {
	// Shifted Laplacian of a cycle: indefinite for a shift inside the
	// spectrum. MINRES must still reduce the residual.
	n := 24
	g := graph.Cycle(n)
	l := sparse.Laplacian(g)
	op := &Shifted{A: l, Sigma: 1.3}
	r := rng.New(9)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	x := make([]float64, n)
	Minres(op, rhs, x, MinresOptions{Tol: 1e-10, MaxIter: 10 * n})
	ax := make([]float64, n)
	op.MulVec(ax, x)
	diff := 0.0
	for i := range ax {
		diff += (ax[i] - rhs[i]) * (ax[i] - rhs[i])
	}
	if math.Sqrt(diff) > 1e-6*Norm2(rhs) {
		t.Fatalf("indefinite solve residual %g too large", math.Sqrt(diff))
	}
}

func TestMinresZeroRHS(t *testing.T) {
	m := randomSymmetric(5, 2)
	x := make([]float64, 5)
	relres, iters := Minres(m, make([]float64, 5), x, MinresOptions{})
	if relres != 0 || iters != 0 {
		t.Fatalf("zero rhs: relres=%g iters=%d", relres, iters)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("x not zero for zero rhs")
		}
	}
}

func TestRQIConvergesToFiedler(t *testing.T) {
	n := 50
	g := graph.Path(n)
	l := sparse.Laplacian(g)
	deflate := [][]float64{ConstantVector(n)}
	// Seed RQI with a loose estimate: the path's closed-form Fiedler vector
	// cos(pi (i+1/2) / n) under heavy deterministic noise.
	r := rng.New(3)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = math.Cos(math.Pi*(float64(i)+0.5)/float64(n)) + 0.3*(r.Float64()-0.5)
	}
	lam, x, _ := RQI(l, x0, RQIOptions{Deflate: deflate})
	want := 2 - 2*math.Cos(math.Pi/float64(n))
	if math.Abs(lam-want) > 1e-8 {
		t.Fatalf("RQI lambda = %.12f, want %.12f", lam, want)
	}
	if r := Residual(l, lam, x); r > 1e-8 {
		t.Fatalf("RQI residual %g", r)
	}
}

func TestShiftedOperator(t *testing.T) {
	m := randomSymmetric(6, 4)
	s := &Shifted{A: m, Sigma: 2.5}
	x := make([]float64, 6)
	x[2] = 1
	d1 := make([]float64, 6)
	d2 := make([]float64, 6)
	m.MulVec(d1, x)
	s.MulVec(d2, x)
	for i := range d1 {
		want := d1[i]
		if i == 2 {
			want -= 2.5
		}
		if math.Abs(d2[i]-want) > 1e-14 {
			t.Fatalf("shifted mulvec wrong at %d", i)
		}
	}
}

func TestConstantVectorIsUnitNullVector(t *testing.T) {
	g := graph.Grid2D(5, 5)
	l := sparse.Laplacian(g)
	c := ConstantVector(25)
	if math.Abs(Norm2(c)-1) > 1e-12 {
		t.Fatal("constant vector not unit")
	}
	out := make([]float64, 25)
	l.MulVec(out, c)
	if Norm2(out) > 1e-12 {
		t.Fatalf("L*1 = %g, want 0", Norm2(out))
	}
}
