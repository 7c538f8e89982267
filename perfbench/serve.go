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
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/registrystore"
)

// Ladder and gate constants shared by both serve workloads.
const (
	limitMS    = 250.0 // latency limit on issue and trace p95
	rungOps    = 400   // least operations per rung: p95 needs 200 per class
	poolCopies = 8     // minted copies fetched per design for tracing
	keepEvery  = 8     // one issue in keepEvery is kept for the loss check
	setupReps  = 5     // set-ups per run; setup_s is their median
	recoverRep = 5     // kill/restart cycles; recover_s is their median
	// minRungS is the shortest a rung may last: long enough that a rate
	// above capacity builds a backlog past the limit instead of finishing
	// before its queue shows.
	minRungS = 5
	// mintRounds splits the mint; mint_copies_per_s is the median round.
	mintRounds = 5
)

// fleet is the set of odcfpd replicas serving one workload, with the
// designs they serve.
type fleet struct {
	w        workload
	bin      string
	dir      string
	urls     []string
	nodes    []*daemon
	netlists [][]byte
	digests  []string
	leader   []int // design → index of the replica leading it
}

// analyzeNetlist runs the daemon's upload pipeline in process: parse,
// sweep, analyse with the default library. Its digest must equal the one
// the daemon answers the upload with.
func analyzeNetlist(ctx context.Context, netlist []byte) (*core.Analysis, string, error) {
	c, err := benchfmt.Parse(bytes.NewReader(netlist))
	if err != nil {
		return nil, "", err
	}
	swept, _ := c.Sweep()
	a, err := core.AnalyzeCtx(ctx, swept, core.DefaultOptions(cell.Default()))
	if err != nil {
		return nil, "", err
	}
	return a, registry.DesignDigest(a), nil
}

// pickDesigns generates the workload's netlists from the seed: renamed
// variants of the circuit (the name is part of the digest, the logic is
// identical), chosen so that each replica leads exactly one design under
// registrystore.NewRing(urls).Leader. An idle replica would otherwise hide
// the cluster's cost.
func pickDesigns(ctx context.Context, w workload, seed int64, urls []string) (netlists [][]byte, digests []string, leader []int, err error) {
	spec, err := bench.ByName(w.circuit)
	if err != nil {
		return nil, nil, nil, err
	}
	var base bytes.Buffer
	if err := benchfmt.Write(&base, spec.Build()); err != nil {
		return nil, nil, nil, err
	}
	ring := registrystore.NewRing(urls)
	taken := make(map[int]bool)
	for k := 0; len(netlists) < len(urls); k++ {
		if k == 1000 {
			return nil, nil, nil, fmt.Errorf("no variant set spreads %d leaders", len(urls))
		}
		nl := append([]byte(fmt.Sprintf("# %s-s%d-v%d\n", spec.Name, seed, k)), base.Bytes()...)
		_, dg, err := analyzeNetlist(ctx, nl)
		if err != nil {
			return nil, nil, nil, err
		}
		li := indexOf(urls, ring.Leader(dg))
		if li < 0 || taken[li] {
			continue
		}
		taken[li] = true
		netlists = append(netlists, nl)
		digests = append(digests, dg)
		leader = append(leader, li)
	}
	return netlists, digests, leader, nil
}

func indexOf(xs []string, x string) int {
	for i := range xs {
		if xs[i] == x {
			return i
		}
	}
	return -1
}

// args returns replica i's command line against the fleet's store root.
func (f *fleet) args(i int) []string {
	u := strings.TrimPrefix(f.urls[i], "http://")
	args := []string{"-addr", u, "-store", filepath.Join(f.dir, fmt.Sprintf("node%d", i))}
	if len(f.urls) > 1 {
		args = append(args, "-cluster", strings.Join(f.urls, ","), "-node", f.urls[i], "-rf", "2")
	}
	return args
}

// start execs every replica and waits until each answers /healthz.
func (f *fleet) start() error {
	f.nodes = make([]*daemon, len(f.urls))
	for i := range f.urls {
		d, err := startDaemon(f.bin, f.args(i), f.urls[i], filepath.Join(f.dir, fmt.Sprintf("node%d.log", i)))
		if err != nil {
			f.stop()
			return err
		}
		f.nodes[i] = d
	}
	for _, d := range f.nodes {
		if err := d.waitHealthy(30 * time.Second); err != nil {
			f.stop()
			return err
		}
	}
	return nil
}

// stop drains every replica that is still running.
func (f *fleet) stop() {
	for _, d := range f.nodes {
		if d != nil {
			d.stop()
		}
	}
}

// kill SIGKILLs every replica that is still running.
func (f *fleet) kill() {
	for _, d := range f.nodes {
		if d != nil {
			d.kill()
		}
	}
}

// sample reads every replica's counters and write volume.
func (f *fleet) sample(ctx context.Context) (counters, error) {
	var c counters
	for _, d := range f.nodes {
		m, err := scrapeMetrics(ctx, d.url)
		if err != nil {
			return c, err
		}
		w, err := procWchar(d.cmd.Process.Pid)
		if err != nil {
			return c, err
		}
		c.metrics = append(c.metrics, m)
		c.wchar = append(c.wchar, w)
	}
	return c, nil
}

// post sends body to url and returns status, headers and response body.
func post(ctx context.Context, url, contentType string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// issueCopy mints (or re-fetches) buyer's verified copy from replica node.
func (f *fleet) issueCopy(ctx context.Context, node, design int, buyer string) ([]byte, error) {
	status, h, body, err := post(ctx, issueURL(f.urls[node], f.digests[design], buyer), "", nil)
	if err != nil {
		return nil, err
	}
	if err := checkIssue(status, h, buyer); err != nil {
		return nil, err
	}
	return body, nil
}

// traceCopy traces a copy at replica node and applies the trace gate.
func (f *fleet) traceCopy(ctx context.Context, node, design int, c pooled) error {
	status, _, body, err := post(ctx, f.urls[node]+"/designs/"+f.digests[design]+"/trace", "text/plain", c.body)
	if err != nil {
		return err
	}
	return checkTrace(status, body, c.buyer)
}

// setup is one serve set-up: exec the replicas on an empty store, upload
// every design to its leader (parse and analysis), and issue one verified
// copy per design so the lazily built CEC session exists before timing.
// It returns the warm-up copies.
func (f *fleet) setup(ctx context.Context, seed int64) ([]pooled, error) {
	if err := f.start(); err != nil {
		return nil, err
	}
	for d := range f.digests {
		status, _, body, err := post(ctx, f.urls[f.leader[d]]+"/designs", "text/plain", f.netlists[d])
		if err != nil {
			return nil, err
		}
		var info struct {
			Digest string `json:"digest"`
		}
		if status != http.StatusCreated && status != http.StatusOK {
			return nil, fmt.Errorf("upload design %d: status %d: %s", d, status, body)
		}
		if err := json.Unmarshal(body, &info); err != nil {
			return nil, fmt.Errorf("upload design %d: %w", d, err)
		}
		if info.Digest != f.digests[d] {
			return nil, fmt.Errorf("upload design %d: daemon digest %s, in-process digest %s", d, info.Digest, f.digests[d])
		}
	}
	warm := make([]pooled, len(f.digests))
	for d := range f.digests {
		buyer := fmt.Sprintf("warm-s%d-d%d", seed, d)
		body, err := f.issueCopy(ctx, f.leader[d], d, buyer)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		warm[d] = pooled{buyer: buyer, body: body}
	}
	return warm, nil
}

// mintPrefix names design d's buyers minted in round r; the job appends
// %05d.
func mintPrefix(seed int64, d, r int) string { return fmt.Sprintf("m%d-%d-r%d-", seed, d, r) }

// mint brings every design's registry to maturity in mintRounds rounds,
// each one async /issue/batch job per design submitted to its leader, and
// returns the median round's fleet-wide copies per second: one slow round
// on a shared machine does not move it.
func (f *fleet) mint(ctx context.Context, seed int64) (float64, error) {
	per := f.w.records / mintRounds
	var rates []float64
	for r := 0; r < mintRounds; r++ {
		wall, err := f.mintRound(ctx, seed, r, per)
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(per*len(f.digests))/wall)
	}
	return median(rates), nil
}

// mintRound runs one round of jobs to completion and returns its wall
// time in seconds.
func (f *fleet) mintRound(ctx context.Context, seed int64, round, count int) (float64, error) {
	type job struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	t0 := time.Now()
	ids := make([]string, len(f.digests))
	for d := range f.digests {
		req, _ := json.Marshal(map[string]any{"count": count, "prefix": mintPrefix(seed, d, round)})
		status, _, body, err := post(ctx, f.urls[f.leader[d]]+"/designs/"+f.digests[d]+"/issue/batch?async=1", "application/json", req)
		if err != nil {
			return 0, err
		}
		var j job
		if status != http.StatusAccepted || json.Unmarshal(body, &j) != nil {
			return 0, fmt.Errorf("mint design %d: status %d: %s", d, status, body)
		}
		ids[d] = j.ID
	}
	pending := len(ids)
	done := make([]bool, len(ids))
	for pending > 0 {
		time.Sleep(2 * time.Millisecond)
		for d, id := range ids {
			if done[d] {
				continue
			}
			resp, err := http.Get(f.urls[f.leader[d]] + "/jobs/" + id)
			if err != nil {
				return 0, err
			}
			var j job
			err = json.NewDecoder(resp.Body).Decode(&j)
			resp.Body.Close()
			if err != nil {
				return 0, fmt.Errorf("mint job %s: %w", id, err)
			}
			switch j.State {
			case "done":
				done[d] = true
				pending--
			case "failed":
				return 0, fmt.Errorf("mint job %s failed: %s", id, j.Error)
			}
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
	}
	return time.Since(t0).Seconds(), nil
}

// serveRun is everything one serve phase measured.
type serveRun struct {
	setupS     []float64
	mintRate   float64
	rungs      []rung // first attempt of each rung climbed
	decided    []rung // the attempt that decided each rung
	goodputIdx int
	goodput    float64
	recoverS   []float64
	rssMB      float64
	before     counters // before the mint
	mid        counters // before the ladder
	after      counters // after the ladder
	ladderSent int
	served     map[string]int // replica URL → operations it served
	attempted  int
	failed     int
	failures   []string
	pool       [][]pooled
	nominalOps []op
	nominalLat []float64 // per nominal operation, ms from due (+Inf: missed)
	finalDir   string
	urls       []string
	netlists   [][]byte
	digests    []string
	leader     []int
}

func (s *serveRun) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 20 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// runServe is a serve workload's timed phases: set-up, mint, the rate
// ladder, recovery, and the convergence and loss gates.
func runServe(ctx context.Context, w workload, bin, out string, seed int64, conns, opsPerRung, maxRungs int) (*serveRun, error) {
	ports, err := freePorts(w.replicas)
	if err != nil {
		return nil, err
	}
	f := &fleet{w: w, bin: bin}
	for _, p := range ports {
		f.urls = append(f.urls, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	if f.netlists, f.digests, f.leader, err = pickDesigns(ctx, w, seed, f.urls); err != nil {
		return nil, err
	}
	run := &serveRun{served: make(map[string]int), urls: f.urls, netlists: f.netlists, digests: f.digests, leader: f.leader}
	defer f.stop()

	// Flush dirty pages left by the build or an earlier run: on ext4 an
	// fsync commits other files' dirty data too, so the daemon's durable
	// writes would pay for them.
	syscall.Sync()

	// Set-up, several times on fresh stores; the last fleet is kept.
	var warm []pooled
	for rep := 0; rep < setupReps; rep++ {
		f.dir = filepath.Join(out, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(f.dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		warm, err = f.setup(ctx, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		run.setupS = append(run.setupS, time.Since(t0).Seconds())
		run.attempted += len(f.digests)
		if rep < setupReps-1 {
			f.kill()
			os.RemoveAll(f.dir)
		}
	}
	run.finalDir = f.dir

	if run.before, err = f.sample(ctx); err != nil {
		return nil, err
	}
	if run.mintRate, err = f.mint(ctx, seed); err != nil {
		return nil, err
	}

	// The trace pool: the warm-up copy plus seeded minted buyers, fetched
	// (materialized) from each design's leader.
	rng := rand.New(rand.NewSource(seed))
	run.pool = make([][]pooled, len(f.digests))
	for d := range f.digests {
		run.pool[d] = append(run.pool[d], warm[d])
		for k := 0; k < poolCopies; k++ {
			buyer := fmt.Sprintf("%s%05d", mintPrefix(seed, d, rng.Intn(mintRounds)), rng.Intn(w.records/mintRounds))
			body, err := f.issueCopy(ctx, f.leader[d], d, buyer)
			run.attempted++
			if err != nil {
				run.fail("pool: %v", err)
				continue
			}
			run.pool[d] = append(run.pool[d], pooled{buyer: buyer, body: body})
		}
	}

	// The rate ladder, lowest (nominal) rung first, stopping at the first
	// rung that misses a goodput condition twice.
	syscall.Sync()
	if run.mid, err = f.sample(ctx); err != nil {
		return nil, err
	}
	tgt := &target{urls: f.urls, digests: f.digests, pool: run.pool}
	kept := make([][]pooled, len(f.digests))
	acked := make([]int, len(f.digests))
	attempt := func(i, a int) rung {
		rate := w.ladder[i]
		n := max(opsPerRung, int(rate*minRungS))
		ops := makeOps(seed, 2*i+a, rate, n, len(f.digests), len(f.urls), run.pool)
		r, outs := runRung(ctx, rate, ops, conns, time.Duration(limitMS*float64(time.Millisecond)), tgt.do)
		if i == 0 && a == 0 {
			run.nominalOps = ops
			for _, o := range outs {
				lat := math.Inf(1)
				if o.sent && o.err == nil {
					lat = o.latencyMS
				}
				run.nominalLat = append(run.nominalLat, lat)
			}
		}
		for j, o := range outs {
			if !o.sent {
				continue
			}
			if o.err != nil {
				run.fail("rung %g: %v", rate, o.err)
				continue
			}
			node := o.node
			if node == "" {
				node = f.urls[0] // a single-node daemon does not stamp X-Odcfp-Node
			}
			run.served[node]++
			if ops[j].kind == opIssue {
				acked[ops[j].design]++
				if o.body != nil {
					kept[ops[j].design] = append(kept[ops[j].design], pooled{buyer: ops[j].buyer, body: o.body})
				}
			}
		}
		run.attempted += len(ops) - r.Unsent
		run.ladderSent += len(ops) - r.Unsent
		fmt.Fprintf(os.Stderr, "rung %6.0f rps (attempt %d): issue p50 %7.2f p95 %7.2f  trace p50 %7.2f p95 %7.2f ms  failed %d unsent %d delivered %.1f/s pass=%v\n",
			rate, a+1, median(r.Issue), tailQuantile(r.Issue, 0.95), median(r.Trace), tailQuantile(r.Trace, 0.95),
			r.Failed, r.Unsent, r.delivered(), r.passes(limitMS))
		return r
	}
	run.rungs, run.decided = climb(maxRungs, limitMS, attempt)
	run.goodput, run.goodputIdx = goodput(run.decided, limitMS)

	if run.after, err = f.sample(ctx); err != nil {
		return nil, err
	}
	for _, d := range f.nodes {
		hwm, err := procField(d.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return nil, err
		}
		run.rssMB += float64(hwm) / 1024
	}

	// Recovery: SIGKILL the leader of design 0, restart it on the same
	// store, and time until it traces an acknowledged copy correctly.
	victim := f.nodes[f.leader[0]]
	for rep := 0; rep < recoverRep; rep++ {
		victim.kill()
		t0 := time.Now()
		if err := victim.start(); err != nil {
			return nil, err
		}
		c := run.pool[0][rep%len(run.pool[0])]
		deadline := t0.Add(60 * time.Second)
		for {
			err := f.traceCopy(ctx, f.leader[0], 0, c)
			if err == nil {
				break
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("recover: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
		run.recoverS = append(run.recoverS, time.Since(t0).Seconds())
		run.attempted++
	}
	for _, d := range f.nodes {
		if err := d.waitHealthy(30 * time.Second); err != nil {
			return nil, err
		}
	}

	// Convergence: after an anti-entropy pull every replica must hold the
	// same record total per design, covering every acknowledged issue.
	if len(f.urls) > 1 {
		totals := make([]map[string]uint64, len(f.urls))
		for i, u := range f.urls {
			resp, err := http.Get(u + "/cluster/status?sync=1")
			if err != nil {
				return nil, err
			}
			var st struct {
				Totals map[string]uint64 `json:"totals"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				return nil, fmt.Errorf("cluster status %s: %w", u, err)
			}
			totals[i] = st.Totals
		}
		for d, dg := range f.digests {
			want := uint64(f.w.records + 1 + acked[d])
			run.attempted++
			for i := range totals {
				if totals[i][dg] != totals[0][dg] || totals[i][dg] < want {
					run.fail("convergence: design %d totals differ or short (replica %d has %d, replica 0 %d, acknowledged ≥ %d)",
						d, i, totals[i][dg], totals[0][dg], want)
					break
				}
			}
		}
	}

	// Loss check: a seeded sample of acknowledged copies traces with zero
	// losses on the recovered fleet.
	for d := range f.digests {
		sample := append(append([]pooled(nil), run.pool[d]...), kept[d]...)
		for k, c := range sample {
			node := (d + k) % len(f.urls)
			run.attempted++
			if err := f.traceCopy(ctx, node, d, c); err != nil {
				run.fail("loss check: %v", err)
			}
		}
	}
	return run, nil
}

// shares returns each replica's share of the served operations, in URL
// order.
func (s *serveRun) shares() []float64 {
	total := 0
	for _, n := range s.served {
		total += n
	}
	out := make([]float64, len(s.urls))
	for i, u := range s.urls {
		if total > 0 {
			out[i] = float64(s.served[u]) / float64(total)
		}
	}
	return out
}

// servedSummary renders the per-replica split for the report.
func (s *serveRun) servedSummary() string {
	keys := make([]string, 0, len(s.served))
	for k := range s.served {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Itoa(s.served[k])
	}
	return strings.Join(parts, " ")
}
