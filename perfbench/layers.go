package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// layerReport is the traced run's per-layer outcome.
type layerReport struct {
	values   map[string]float64
	table    []reconRow
	failures []string
}

// reconRow is one line of the reconciliation table: an operation's
// end-to-end median against the sum of its layers' medians.
type reconRow struct {
	Op         string             `json:"op"`
	E2EP50MS   float64            `json:"e2e_p50_ms"`
	LayersMS   map[string]float64 `json:"layers_ms"`
	ResidualMS float64            `json:"residual_ms"`
}

// Layers on each operation's blocking path, in call order.
var (
	issueLayers = []string{"registry.issue_ms", "registrystore.append_p50_ms", "core.verify_ms", "benchfmt.write_ms"}
	traceLayers = []string{"benchfmt.parse_ms", "core.extract_ms", "registry.trace_exact_ms"}
)

// ratio is a/b, or 0 when nothing happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedLayers replays the nominal rung in process, untraced and traced,
// and combines the spans with the daemon run's counters.
func tracedLayers(ctx context.Context, sr *serveRun, dir string) (*layerReport, error) {
	in := &replayInput{
		urls: sr.urls, netlists: sr.netlists, digests: sr.digests, leader: sr.leader,
		storeDir: sr.finalDir, pool: sr.pool, ops: sr.nominalOps,
	}
	// The untraced replay runs the first overheadOps operations before and
	// after the traced one; the faster of the two is the baseline, so
	// warm-up is not charged to either side.
	before, err := replay(ctx, in, overheadOps, filepath.Join(dir, "replay-untraced"), newRecorder(false))
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	rec := newRecorder(true)
	traced, err := replay(ctx, in, len(in.ops), filepath.Join(dir, "replay-traced"), rec)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	after, err := replay(ctx, in, overheadOps, filepath.Join(dir, "replay-untraced2"), newRecorder(false))
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	baseline := min(before.prefixWall, after.prefixWall)
	if len(sr.urls) == 1 {
		if err := replicateProbe(ctx, filepath.Join(dir, "probe"), sr.digests[0], traced.issued, rec); err != nil {
			return nil, fmt.Errorf("replicate probe: %w", err)
		}
	}
	if err := rec.writeSpans(filepath.Join(dir, "spans.json")); err != nil {
		return nil, err
	}

	v := map[string]float64{}
	p50 := func(span string) float64 { return median(rec.durations(span)) }
	v["benchfmt.parse_ms"] = p50("benchfmt.parse")
	v["core.extract_ms"] = p50("core.extract")
	v["registry.trace_exact_ms"] = median(rec.samples["registry.trace_exact_self"])
	v["registry.issue_ms"] = p50("registry.issue")
	v["core.verify_ms"] = p50("core.verify")
	v["sat.conflicts_per_verify"] = ratio(float64(traced.conflicts), float64(traced.verifies))
	v["benchfmt.write_ms"] = p50("benchfmt.write")
	appends := rec.durations("registrystore.append")
	v["registrystore.append_p50_ms"] = median(appends)
	v["registrystore.append_p95_ms"] = tailQuantile(appends, 0.95)
	v["registrystore.replicate_ms"] = p50("registrystore.replicate")
	v["registrystore.load_ms"] = p50("registrystore.load")
	v["core.analyze_ms"] = p50("core.analyze")
	v["cec.session_build_ms"] = p50("cec.session_build")
	v["trace.overhead_ratio"] = ratio(float64(traced.prefixWall), float64(baseline)) - 1

	// Counters scraped from the daemons: write volume and fsyncs over the
	// mint and the ladder, request ratios over the ladder alone.
	v["registrystore.write_bytes_per_record"] = ratio(float64(sr.after.wcharDelta(sr.before)),
		float64(sr.after.delta(sr.before, "registrystore.records")))
	v["registrystore.fsyncs_per_append"] = ratio(float64(sr.after.delta(sr.before, "registrystore.wal_fsyncs")),
		float64(sr.after.delta(sr.before, "registrystore.appends")))
	sent := float64(sr.ladderSent)
	v["serve.forward_ratio"] = ratio(float64(sr.after.delta(sr.mid, "serve.cluster_forwards")), sent)
	hits, misses := float64(sr.after.delta(sr.mid, "serve.cache_hits")), float64(sr.after.delta(sr.mid, "serve.cache_misses"))
	v["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["serve.shed_ratio"] = ratio(float64(sr.after.delta(sr.mid, "serve.shed_requests")), sent)
	shares := sr.shares()
	least := 1.0
	for _, s := range shares {
		least = min(least, s)
	}
	v["serve.replica_share_min"] = least
	nom := &sr.rungs[0]
	v["loadgen.lag_ms"] = tailQuantile(nom.LagMS, 0.95)

	// Reconciliation: layer medians plus the residual make up each
	// operation's end-to-end median.
	rep := &layerReport{values: v}
	for _, st := range []*replayStats{before, traced, after} {
		rep.failures = append(rep.failures, st.failures...)
	}
	for _, row := range []struct {
		op     string
		e2e    float64
		layers []string
	}{{"issue", median(nom.Issue), issueLayers}, {"trace", median(nom.Trace), traceLayers}} {
		r := reconRow{Op: row.op, E2EP50MS: row.e2e, LayersMS: map[string]float64{}}
		var parts []float64
		for _, l := range row.layers {
			r.LayersMS[l] = v[l]
			parts = append(parts, v[l])
		}
		r.ResidualMS = residual(row.e2e, parts)
		v["serve.residual_"+row.op+"_ms"] = r.ResidualMS
		rep.table = append(rep.table, r)
		fmt.Fprintf(os.Stderr, "reconciliation %s: e2e p50 %.3f ms =", row.op, row.e2e)
		for _, l := range row.layers {
			fmt.Fprintf(os.Stderr, " %s %.3f +", l, v[l])
		}
		fmt.Fprintf(os.Stderr, " residual %.3f\n", r.ResidualMS)
	}
	fmt.Fprintf(os.Stderr, "first %d operations: traced replay %.3fs vs untraced %.3fs (best of %.3fs, %.3fs), overhead %+.2f%%\n",
		overheadOps, traced.prefixWall.Seconds(), baseline.Seconds(), before.prefixWall.Seconds(),
		after.prefixWall.Seconds(), 100*v["trace.overhead_ratio"])
	return rep, nil
}
