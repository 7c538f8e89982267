package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.95, true}, // rank 190, ten beyond
		{199, 0.95, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, %g) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200 … 1, unsorted input
	}
	if got := tailQuantile(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (nearest rank)", got)
	}
	if got := tailQuantile(xs[:199], 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 of 199 samples = %g, want +Inf (unsupported)", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// flat returns n latencies of v ms.
func flat(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

func okRung(rate float64) rung {
	return rung{Rate: rate, Issue: flat(200, 20), Trace: flat(200, 10), Succeeded: 400, SpanS: 400 / rate}
}

func TestGoodputRungRule(t *testing.T) {
	// Three passing rungs, then one whose backlog grew: requests still
	// unsent at the rung's end fail it even though its sent requests were
	// fast, and they enter the percentile as misses.
	backlog := okRung(80)
	backlog.Unsent = 5
	for i := 0; i < 5; i++ {
		backlog.Issue[i] = math.Inf(1)
	}
	backlog.Succeeded -= 5
	rungs := []rung{okRung(10), okRung(20), okRung(40), backlog, okRung(160)}
	rate, idx := goodput(rungs, limitMS)
	if idx != 2 || math.Abs(rate-40) > 1e-9 {
		t.Fatalf("goodput = %g at rung %d, want 40 at rung 2", rate, idx)
	}

	// Eleven of 200 requests over the limit put p95 over it; ten do not.
	slow := okRung(10)
	for i := 0; i < 10; i++ {
		slow.Trace[i] = 400
	}
	if !slow.passes(limitMS) {
		t.Fatal("ten misses of 200 must still pass at p95")
	}
	slow.Trace[10] = 400
	if slow.passes(limitMS) {
		t.Fatal("eleven misses of 200 must fail p95")
	}

	// A single failed operation fails the rung.
	failed := okRung(10)
	failed.Failed = 1
	if failed.passes(limitMS) {
		t.Fatal("a failed operation must fail the rung")
	}

	// A rung too small to support p95 cannot pass.
	small := okRung(10)
	small.Issue = small.Issue[:150]
	if small.passes(limitMS) {
		t.Fatal("a rung with 150 issues cannot support p95")
	}

	// When the lowest rung fails there is no goodput, whatever is above.
	if rate, idx := goodput([]rung{failed, okRung(20)}, limitMS); idx != -1 || rate != 0 {
		t.Fatalf("goodput = %g at rung %d, want 0 at -1", rate, idx)
	}
}

func TestClimbRetriesEachRungOnce(t *testing.T) {
	// Rung 1 fails once (a transient stall) and passes on retry; rung 2
	// fails twice and ends the climb; rung 3 is never tried.
	fails := map[[2]int]bool{{1, 0}: true, {2, 0}: true, {2, 1}: true}
	var tried [][2]int
	first, decided := climb(4, limitMS, func(i, a int) rung {
		tried = append(tried, [2]int{i, a})
		r := okRung(float64(int(10) << i))
		if fails[[2]int{i, a}] {
			r.Unsent = 1
		}
		return r
	})
	want := [][2]int{{0, 0}, {1, 0}, {1, 1}, {2, 0}, {2, 1}}
	if len(tried) != len(want) {
		t.Fatalf("attempts %v, want %v", tried, want)
	}
	for i := range want {
		if tried[i] != want[i] {
			t.Fatalf("attempts %v, want %v", tried, want)
		}
	}
	if len(first) != 3 || first[1].passes(limitMS) {
		t.Fatal("first attempts must be kept as run, the failed one included")
	}
	if rate, idx := goodput(decided, limitMS); idx != 1 || rate != 20 {
		t.Fatalf("goodput = %g at rung %d, want 20 at rung 1", rate, idx)
	}
}

func TestResidualArithmetic(t *testing.T) {
	layers := []float64{1.25, 30.5, 8, 2.25}
	e2e := 50.0
	r := residual(e2e, layers)
	if r != 8 {
		t.Fatalf("residual = %g, want 8", r)
	}
	sum := r
	for _, l := range layers {
		sum += l
	}
	if sum != e2e {
		t.Fatalf("layers + residual = %g, want %g", sum, e2e)
	}
	if r := residual(5, []float64{3, 4}); r != -2 {
		t.Fatalf("residual = %g, want -2 (layers slower than end to end)", r)
	}
}

func TestMakeOpsSeeded(t *testing.T) {
	pool := [][]pooled{{{buyer: "a"}, {buyer: "b"}}, {{buyer: "c"}}}
	a := makeOps(7, 1, 40, 400, 2, 3, pool)
	b := makeOps(7, 1, 40, 400, 2, 3, pool)
	c := makeOps(8, 1, 40, 400, 2, 3, pool)
	issues := 0
	same, differ := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			differ = true
		}
		if a[i].kind == opIssue {
			issues++
		} else if pool[a[i].design][a[i].copy].buyer != a[i].buyer {
			t.Fatalf("op %d traces %q but expects %q", i, pool[a[i].design][a[i].copy].buyer, a[i].buyer)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
	}
	if !same || !differ {
		t.Fatalf("same seed equal = %v, other seed differs = %v", same, differ)
	}
	if issues != 200 {
		t.Fatalf("%d issues of 400, want 200", issues)
	}
	if last := a[len(a)-1].due.Seconds(); last > 10 {
		t.Fatalf("last op due at %gs, want within 400/40 = 10s", last)
	}
}

// TestNoCommittedBenchFiles keeps the benchmark's writes under its own
// output directory: no source file may name a committed BENCH_*.json.
func TestNoCommittedBenchFiles(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "BENCH_") {
			t.Errorf("%s refers to a committed BENCH_ file", f)
		}
	}
}
