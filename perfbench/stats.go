package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples past it is one or two outliers, not a
// property of the system.
const minTail = 10

// rank returns the 1-based nearest-rank position of the q-quantile among n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether the q-quantile of n samples keeps at least
// minTail samples beyond it (p95 therefore needs n ≥ 200).
func supported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minTail
}

// quantile returns the nearest-rank q-quantile of xs (xs is not modified).
// Failed and unsent operations enter as +Inf, so they count as missing any
// latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile returns the q-quantile when the sample supports it, and
// +Inf otherwise: an unsupported tail is treated as a missed limit, never
// as a pass.
func tailQuantile(xs []float64, q float64) float64 {
	if !supported(len(xs), q) {
		return math.Inf(1)
	}
	return quantile(xs, q)
}

// rung is the outcome of one open-loop rate of the ladder.
type rung struct {
	Rate float64 `json:"rate_rps"`
	// Issue and Trace hold per-operation latency in ms from the due time;
	// failed and unsent operations are +Inf.
	Issue []float64 `json:"-"`
	Trace []float64 `json:"-"`
	// Failed counts completed operations a correctness gate rejected.
	Failed int `json:"failed"`
	// Unsent counts operations the generator could not hand to a
	// connection before the rung ended: the backlog grew.
	Unsent int `json:"unsent"`
	// Succeeded counts operations that completed and passed their gate.
	Succeeded int `json:"succeeded"`
	// SpanS runs from the rung's start to its last completion.
	SpanS float64 `json:"span_s"`
	// LagMS holds how late the generator woke for each operation it sent.
	LagMS []float64 `json:"-"`
}

// passes applies the goodput conditions: both p95s within the limit, no
// failed operation, and no backlog left at the rung's end.
func (r *rung) passes(limitMS float64) bool {
	return r.Failed == 0 && r.Unsent == 0 &&
		tailQuantile(r.Issue, 0.95) <= limitMS && tailQuantile(r.Trace, 0.95) <= limitMS
}

// delivered is the rate of successful operations over the rung's span.
func (r *rung) delivered() float64 {
	if r.SpanS <= 0 {
		return 0
	}
	return float64(r.Succeeded) / r.SpanS
}

// climb runs a ladder of n rungs. Each rung gets up to two attempts and
// counts as passed when either passes, so one transient stall of a shared
// machine does not end the climb; the climb stops at the first rung whose
// attempts both fail. It returns the first attempt of every rung tried
// (the nominal rung's latencies come from its first attempt, never from a
// retry) and, per rung, the attempt that decided it.
func climb(n int, limitMS float64, attempt func(i, a int) rung) (first, decided []rung) {
	for i := 0; i < n; i++ {
		r := attempt(i, 0)
		first = append(first, r)
		if !r.passes(limitMS) {
			r = attempt(i, 1)
		}
		decided = append(decided, r)
		if !r.passes(limitMS) {
			break
		}
	}
	return first, decided
}

// goodput walks the ladder in order and returns the delivered rate of the
// highest rung that passes before the first one that fails, with that
// rung's index (-1 and 0 when even the lowest rung fails).
func goodput(rungs []rung, limitMS float64) (rate float64, idx int) {
	idx = -1
	for i := range rungs {
		if !rungs[i].passes(limitMS) {
			break
		}
		idx = i
	}
	if idx < 0 {
		return 0, -1
	}
	return rungs[idx].delivered(), idx
}

// residual is what the traced layers leave unexplained of an end-to-end
// median: HTTP, JSON, the worker-pool queue and the forward hop.
func residual(e2eP50 float64, layerP50s []float64) float64 {
	r := e2eP50
	for _, l := range layerP50s {
		r -= l
	}
	return r
}
