package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"
)

// This file is the open-loop load generator: operations are due on a
// seeded Poisson schedule whatever the system's speed, at most `conns` are
// in flight at once, and every latency is timed from the operation's due
// time, so a stall is charged to every request it delays.

type opKind int

const (
	opIssue opKind = iota
	opTrace
)

// op is one scheduled request.
type op struct {
	kind   opKind
	design int
	node   int    // replica the request is sent to
	buyer  string // issue: the fresh buyer; trace: the buyer expected back
	copy   int    // trace: index into the design's pool of issued copies
	keep   bool   // issue: keep the returned copy for the loss check
	due    time.Duration
}

// pooled is an issued copy the run may trace later.
type pooled struct {
	buyer string
	body  []byte
}

// outcome is one request's result.
type outcome struct {
	latencyMS float64 // from due time to the end of the response
	err       error   // nil: completed and passed its gate
	node      string  // X-Odcfp-Node of the replica that served it
	body      []byte  // issue bodies of ops with keep set
	sent      bool    // handed to a connection before the rung ended
}

// makeOps builds a rung's operation sequence from the seed: n operations,
// issue and trace in equal numbers in a seeded order, arrivals uniform
// order statistics over n/rate seconds (a Poisson process conditioned on
// its count, so the rung's length is fixed and only the spacing is random).
func makeOps(seed int64, rungIdx int, rate float64, n, designs, nodes int, pool [][]pooled) []op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rungIdx)*7919 + 1))
	kinds := make([]opKind, n)
	for i := n / 2; i < n; i++ {
		kinds[i] = opTrace
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	window := float64(n) / rate
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * window
	}
	sort.Float64s(dues)
	ops := make([]op, n)
	for i := range ops {
		d := rng.Intn(designs)
		o := op{
			kind:   kinds[i],
			design: d,
			node:   rng.Intn(nodes),
			due:    time.Duration(dues[i] * float64(time.Second)),
		}
		if o.kind == opIssue {
			o.buyer = fmt.Sprintf("s%d-r%d-%04d", seed, rungIdx, i)
			o.keep = rng.Intn(keepEvery) == 0
		} else {
			o.copy = rng.Intn(len(pool[d]))
			o.buyer = pool[d][o.copy].buyer
		}
		ops[i] = o
	}
	return ops
}

// target is what requests are addressed to: replica base URLs and design
// digests.
type target struct {
	urls    []string
	digests []string
	pool    [][]pooled
}

// newClient returns an HTTP client holding at most one connection per
// replica; each generator connection owns one.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
	}
}

// checkIssue is the issue gate: a copy counts only when the daemon proved
// it equivalent to the master (a "degraded" spot check would hide a SAT
// regression) and minted it for the buyer asked for.
func checkIssue(status int, h http.Header, buyer string) error {
	if status != http.StatusOK {
		return fmt.Errorf("issue %s: status %d", buyer, status)
	}
	if v := h.Get("X-Odcfp-Verified"); v != "equivalent" {
		return fmt.Errorf("issue %s: verified %q, want \"equivalent\"", buyer, v)
	}
	if got := h.Get("X-Odcfp-Buyer"); got != buyer {
		return fmt.Errorf("issue %s: minted for %q", buyer, got)
	}
	return nil
}

// checkTrace is the trace gate: the suspect must trace to exactly the
// buyer it was issued to.
func checkTrace(status int, body []byte, want string) error {
	if status != http.StatusOK {
		return fmt.Errorf("trace %s: status %d", want, status)
	}
	var resp struct {
		Exact string `json:"exact"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("trace %s: decoding response: %w", want, err)
	}
	if resp.Exact != want {
		return fmt.Errorf("trace %s: traced to %q", want, resp.Exact)
	}
	return nil
}

// issueURL is the interactive verified issue of one fresh buyer.
func issueURL(base, digest, buyer string) string {
	return base + "/designs/" + digest + "/issue?verify=1&buyer=" + url.QueryEscape(buyer)
}

// do sends one operation and applies its gate.
func (t *target) do(ctx context.Context, c *http.Client, o op) outcome {
	var req *http.Request
	var err error
	base := t.urls[o.node]
	if o.kind == opIssue {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, issueURL(base, t.digests[o.design], o.buyer), nil)
	} else {
		body := t.pool[o.design][o.copy].body
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/designs/"+t.digests[o.design]+"/trace", bytes.NewReader(body))
	}
	if err != nil {
		return outcome{err: err}
	}
	resp, err := c.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{err: err}
	}
	out := outcome{node: resp.Header.Get("X-Odcfp-Node")}
	if o.kind == opIssue {
		out.err = checkIssue(resp.StatusCode, resp.Header, o.buyer)
		if o.keep && out.err == nil {
			out.body = body
		}
	} else {
		out.err = checkTrace(resp.StatusCode, body, o.buyer)
	}
	return out
}

// runRung drives ops open-loop over conns connections. The rung ends
// limit after the last due time: operations not handed to a connection by
// then are unsent (the backlog grew) and count as missing the limit.
// In-flight operations still complete and are timed. A rung stops early,
// leaving the rest unsent, once it can no longer pass: an operation
// failed, or more operations of one class missed the limit than its p95
// allows.
func runRung(ctx context.Context, rate float64, ops []op, conns int, limit time.Duration,
	do func(ctx context.Context, c *http.Client, o op) outcome) (rung, []outcome) {
	outs := make([]outcome, len(ops))
	lag := make([]float64, 0, len(ops))
	start := time.Now()
	end := start.Add(ops[len(ops)-1].due + limit)
	limitMS := float64(limit) / float64(time.Millisecond)

	var perClass [2]int
	for _, o := range ops {
		perClass[o.kind]++
	}
	var mu sync.Mutex
	var last time.Time
	var misses [2]int
	abort := make(chan struct{})
	var abortOnce sync.Once
	miss := func(k opKind, failed bool) {
		mu.Lock()
		misses[k]++
		lost := failed || misses[k] > perClass[k]-rank(perClass[k], 0.95)
		mu.Unlock()
		if lost {
			abortOnce.Do(func() { close(abort) })
		}
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := range work {
				dueAt := start.Add(ops[i].due)
				o := do(ctx, c, ops[i])
				done := time.Now()
				o.latencyMS = float64(done.Sub(dueAt)) / float64(time.Millisecond)
				o.sent = true
				outs[i] = o
				if o.err != nil || o.latencyMS > limitMS {
					miss(ops[i].kind, o.err != nil)
				}
				mu.Lock()
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i := range ops {
		dueAt := start.Add(ops[i].due)
		if d := time.Until(dueAt); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-abort:
				break dispatch
			case <-ctx.Done():
				break dispatch
			}
		}
		lag = append(lag, float64(time.Since(dueAt))/float64(time.Millisecond))
		timer.Reset(time.Until(end))
		select {
		case work <- i:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
			break dispatch
		case <-abort:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()

	r := rung{Rate: rate, LagMS: lag}
	for i := range ops {
		lat := math.Inf(1)
		switch {
		case !outs[i].sent:
			r.Unsent++
		case outs[i].err != nil:
			r.Failed++
		default:
			r.Succeeded++
			lat = outs[i].latencyMS
		}
		if ops[i].kind == opIssue {
			r.Issue = append(r.Issue, lat)
		} else {
			r.Trace = append(r.Trace, lat)
		}
	}
	if !last.IsZero() {
		r.SpanS = last.Sub(start).Seconds()
	}
	return r, outs
}
