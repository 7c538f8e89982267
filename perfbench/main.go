// Command perfbench is the repository's benchmark: open-loop load against
// odcfpd (one node, and a three-replica cluster), the paper's tables and
// the SAT removal attack, with a traced run that breaks the end-to-end
// figures down layer by layer. Run it from the repository root through
// run.sh, which builds it and the daemon first:
//
//	bash perfbench/run.sh --workload single-mature --seed 1 --seconds 10 --trace 0
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones from the traced run. Everything
// else the run produces (daemon logs, the rung table, spans) goes under
// --out. See README.md for the metrics and what each layer should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one serve topology plus the offline phase that supplies
// its wall_s.
type workload struct {
	name     string
	circuit  string
	replicas int // one design per replica, each leading one
	records  int // minted per design before the ladder
	// ladder lists the open-loop rates in requests per second, doubling;
	// the first is the nominal rung the latency percentiles come from.
	ladder  []float64
	offline string // "paper" or "attack"
}

var workloads = []workload{
	{name: "single-mature", circuit: "c5315", replicas: 1, records: 10000,
		ladder: []float64{12, 24, 48, 96}, offline: "paper"},
	{name: "cluster-3x", circuit: "c880", replicas: 3, records: 3000,
		ladder: []float64{50, 100, 200, 400}, offline: "attack"},
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: single-mature or cluster-3x")
	seed := fs.Int64("seed", 1, "workload seed (inputs, arrivals and buyers derive from it)")
	seconds := fs.Int("seconds", 10, "length of the nominal rung in seconds (at least 200 operations per class)")
	trace := fs.Int("trace", 0, "1: report the traced run's per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", ".bench_out", "directory for logs, stores, spans and the full report")
	bin := fs.String("odcfpd", ".bench_build/bin/odcfpd", "odcfpd binary")
	offline := fs.String("offline", "", "internal: run an offline phase (paper, attack, all) in this process")
	fs.Parse(os.Args[1:])

	if *offline != "" {
		if err := offlineMain(*offline, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (single-mature|cluster-3x), --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: odcfpd binary: %v (run through perfbench/run.sh)\n", err)
		os.Exit(1)
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-s%d-t%d-%d", w.name, *seed, *trace, time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	bin2, err := filepath.Abs(*bin)
	if err == nil {
		var res *result
		// An interrupted run still stops every daemon and child it started.
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		res, err = run(ctx, *w, bin2, dir, *seed, *seconds, *trace == 1)
		stop()
		if err == nil {
			blob, merr := json.Marshal(res)
			if merr != nil {
				err = merr
			} else {
				fmt.Println(string(blob))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// finite maps a missed percentile (+Inf: failed or unsent operations past
// it) to a large finite number JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e9
	}
	if math.IsNaN(v) {
		return -1
	}
	return v
}

// run executes one workload run and assembles its result.
func run(ctx context.Context, w workload, bin, dir string, seed int64, seconds int, trace bool) (*result, error) {
	conns := runtime.NumCPU()
	nominalOps := max(rungOps, int(w.ladder[0]*float64(seconds)))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %d connections, nominal rung %g rps × %d ops, ladder %v, limit %g ms\n",
		w.name, seed, conns, w.ladder[0], nominalOps, w.ladder, limitMS)

	// The traced run climbs no further than the nominal rung: its layers
	// are measured there, and goodput is an end-to-end figure.
	rungs := len(w.ladder)
	if trace {
		rungs = 1
	}
	sr, err := runServe(ctx, w, bin, dir, seed, conns, nominalOps, rungs)
	if err != nil {
		return nil, err
	}
	report := map[string]any{"workload": w.name, "seed": seed, "trace": trace}
	row := func(r *rung, attempt int) map[string]any {
		return map[string]any{"attempt": attempt,
			"rate_rps": r.Rate, "pass": r.passes(limitMS), "delivered_rps": r.delivered(),
			"issue_p50_ms": finite(median(r.Issue)), "issue_p95_ms": finite(tailQuantile(r.Issue, 0.95)),
			"trace_p50_ms": finite(median(r.Trace)), "trace_p95_ms": finite(tailQuantile(r.Trace, 0.95)),
			"failed": r.Failed, "unsent": r.Unsent, "succeeded": r.Succeeded,
		}
	}
	var rungRows []map[string]any
	for i := range sr.decided {
		rungRows = append(rungRows, row(&sr.rungs[i], 1))
		if !sr.rungs[i].passes(limitMS) {
			rungRows = append(rungRows, row(&sr.decided[i], 2))
		}
	}
	report["rungs"] = rungRows
	report["goodput_rung"] = sr.goodputIdx
	// The nominal rung operation by operation: due time, class, latency.
	series := make([][3]any, len(sr.nominalOps))
	for i, o := range sr.nominalOps {
		series[i] = [3]any{o.due.Seconds(), o.kind == opIssue, finite(sr.nominalLat[i])}
	}
	report["nominal_ops"] = series
	report["replica_shares"] = sr.shares()
	report["served_per_replica"] = sr.servedSummary()
	fmt.Fprintf(os.Stderr, "served per replica: %s\n", sr.servedSummary())

	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: finite(v), Unit: unit} }
	nom := &sr.rungs[0]

	var off *offlineResult
	if !trace {
		if off, err = runOffline(ctx, w.offline, false, dir); err != nil {
			return nil, err
		}
		put("setup_s", "s", median(sr.setupS)+off.SetupS)
		put("mint_copies_per_s", "1/s", sr.mintRate)
		put("issue_p50_ms", "ms", median(nom.Issue))
		put("issue_p95_ms", "ms", tailQuantile(nom.Issue, 0.95))
		put("trace_p50_ms", "ms", median(nom.Trace))
		put("trace_p95_ms", "ms", tailQuantile(nom.Trace, 0.95))
		put("goodput_rps", "1/s", sr.goodput)
		put("recover_s", "s", median(sr.recoverS))
		put("wall_s", "s", off.WallS)
		put("peak_rss_mb", "MB", sr.rssMB)
		put("offline_rss_mb", "MB", off.RSSMB)
	} else {
		layers, err := tracedLayers(ctx, sr, dir)
		if err != nil {
			return nil, err
		}
		if off, err = runOffline(ctx, "all", true, dir); err != nil {
			return nil, err
		}
		for k, v := range off.Layers {
			layers.values[k] = v
		}
		for k, v := range layers.values {
			put(k, layerUnit(k), v)
		}
		report["reconciliation"] = layers.table
		sr.failures = append(sr.failures, layers.failures...)
		sr.failed += len(layers.failures)
	}
	sr.attempted++ // the offline phase
	if len(off.Failures) > 0 {
		sr.failed++
		sr.failures = append(sr.failures, off.Failures...)
	}
	res.Attempted, res.Failed = sr.attempted, sr.failed
	res.Correct = sr.failed == 0
	for _, f := range sr.failures {
		fmt.Fprintln(os.Stderr, "GATE FAILED:", f)
	}
	report["result"] = res
	report["failures"] = sr.failures
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "report.json"), blob, 0o644); err != nil {
		return nil, err
	}
	printMetrics(res)
	// The stores are the bulk of the run's files; the report, logs and
	// spans stay.
	stores, _ := filepath.Glob(filepath.Join(dir, "*", "node[0-9]"))
	for _, st := range stores {
		os.RemoveAll(st)
	}
	return res, nil
}

// printMetrics lists every metric with its unit on stderr.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "  attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_per_record"):
		return "B/record"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_min"):
		return "ratio"
	default:
		return "count"
	}
}
