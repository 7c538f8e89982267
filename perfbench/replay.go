package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/registrystore"
)

// The traced run replays a serve workload's nominal-rung operations
// serially, in process, through the public function each layer exposes,
// with an in-memory span around every call. The spans are the benchmark's
// own: the program under test is not instrumented for it.

// spanRec is one recorded layer call. Spans of one operation share Op;
// Parent is the ID of the span that caused this one (0: none).
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans and derived values in memory. A recorder that is
// off records nothing, so the same code path runs untraced.
type recorder struct {
	on      bool
	t0      time.Time
	mu      sync.Mutex
	spans   []spanRec
	values  map[string]float64
	samples map[string][]float64
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(), values: map[string]float64{}, samples: map[string][]float64{}}
}

// active is an open span; a nil *active (recorder off) ends as a no-op.
type active struct {
	r   *recorder
	rec spanRec
}

// start opens a span named name for operation op under parent.
func (r *recorder) start(name string, op, parent int) *active {
	if !r.on {
		return nil
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRec{}) // reserve the ID
	r.mu.Unlock()
	return &active{r: r, rec: spanRec{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))}}
}

// end closes the span and returns its duration in ms.
func (a *active) end() float64 {
	if a == nil {
		return 0
	}
	a.rec.End = int64(time.Since(a.r.t0))
	a.r.mu.Lock()
	a.r.spans[a.rec.ID-1] = a.rec
	a.r.mu.Unlock()
	return float64(a.rec.End-a.rec.Start) / 1e6
}

// id returns the span's ID for use as a parent (0 when off).
func (a *active) id() int {
	if a == nil {
		return 0
	}
	return a.rec.ID
}

// value records a derived per-layer number (a count or a ratio).
func (r *recorder) value(name string, v float64) {
	if !r.on {
		return
	}
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// sample records one per-operation value derived from several spans.
func (r *recorder) sample(name string, v float64) {
	if !r.on {
		return
	}
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// durations returns the durations in ms of every span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// sum adds durations of every span named name.
func (r *recorder) sum(name string) float64 {
	t := 0.0
	for _, d := range r.durations(name) {
		t += d
	}
	return t
}

// writeSpans stores the recorded spans as JSON.
func (r *recorder) writeSpans(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// localTransport carries replication between in-process replicated store
// nodes, timing each delivery as a registrystore.replicate span.
type localTransport struct {
	rec   *recorder
	mu    sync.Mutex
	nodes map[string]*registrystore.Replicated
}

func (t *localTransport) node(id string) (*registrystore.Replicated, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nodes[id]
	if n == nil {
		return nil, fmt.Errorf("in-process node %s not open", id)
	}
	return n, nil
}

// Replicate implements registrystore.Transport.
func (t *localTransport) Replicate(ctx context.Context, node, digest string, recs []registrystore.Record, total uint64) (uint64, error) {
	sp := t.rec.start("registrystore.replicate", 0, 0)
	defer sp.end()
	n, err := t.node(node)
	if err != nil {
		return 0, err
	}
	return n.ApplyReplica(digest, recs)
}

// Fetch implements registrystore.Transport.
func (t *localTransport) Fetch(ctx context.Context, node, digest string) ([]registrystore.Record, error) {
	n, err := t.node(node)
	if err != nil {
		return nil, err
	}
	return n.Records(digest), nil
}

// openReplicas opens one in-process replicated store per node ID under
// dir (W=2, scrubber off), wired together by a localTransport.
func openReplicas(dir string, ids []string, rec *recorder) ([]*registrystore.Replicated, error) {
	tr := &localTransport{rec: rec, nodes: map[string]*registrystore.Replicated{}}
	var out []*registrystore.Replicated
	for i, id := range ids {
		r, err := registrystore.OpenReplicated(registrystore.ReplicatedConfig{
			Dir: filepath.Join(dir, fmt.Sprintf("node%d", i), "wal"), Self: id, Nodes: ids, W: 2,
			Transport: tr, ScrubInterval: -1,
		})
		if err != nil {
			closeAll(out)
			return nil, err
		}
		tr.mu.Lock()
		tr.nodes[id] = r
		tr.mu.Unlock()
		out = append(out, r)
	}
	return out, nil
}

func closeAll(rs []*registrystore.Replicated) {
	for _, r := range rs {
		r.Close()
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// overheadOps is how many operations the untraced replay runs; tracing
// overhead compares the two replays over these.
const overheadOps = 100

// replayInput is what the replay needs from the serve phase.
type replayInput struct {
	urls     []string
	netlists [][]byte
	digests  []string
	leader   []int
	storeDir string // the stopped fleet's store root, copied, never mutated
	pool     [][]pooled
	ops      []op
}

// replayStats is one replay's outcome.
type replayStats struct {
	// prefixWall times the first overheadOps operations, the span both the
	// traced and the untraced replay run.
	prefixWall time.Duration
	verifies   int
	conflicts  int64
	failures   []string
	issued     []registrystore.Record // design 0's fresh records
}

// replay copies the mature store to dir and runs the first n operations of
// the sequence through the layers serially. Issue buyers carry a replay
// suffix so every issue is fresh, as in the daemon run.
func replay(ctx context.Context, in *replayInput, n int, dir string, rec *recorder) (*replayStats, error) {
	st := &replayStats{}
	// Per design: analysis and verification session, as an upload builds
	// them.
	analyses := make([]*core.Analysis, len(in.digests))
	for d, nl := range in.netlists {
		c, err := benchfmt.Parse(bytes.NewReader(nl))
		if err != nil {
			return nil, err
		}
		swept, _ := c.Sweep()
		sp := rec.start("core.analyze", 0, 0)
		a, err := core.AnalyzeCtx(ctx, swept, core.DefaultOptions(cell.Default()))
		sp.end()
		if err != nil {
			return nil, err
		}
		if registry.DesignDigest(a) != in.digests[d] {
			return nil, fmt.Errorf("replay: design %d digest changed", d)
		}
		sp = rec.start("cec.session_build", 0, 0)
		a.SharedVerifier()
		sp.end()
		analyses[d] = a
	}

	// The stores, loaded from a copy of the fleet's final state.
	stores := make([]registrystore.Store, len(in.digests))
	var replicas []*registrystore.Replicated
	if len(in.urls) == 1 {
		if err := copyTree(filepath.Join(in.storeDir, "node0"), filepath.Join(dir, "node0")); err != nil {
			return nil, err
		}
		l, err := registrystore.OpenLocal(filepath.Join(dir, "node0"))
		if err != nil {
			return nil, err
		}
		stores[0] = l
	} else {
		for i := range in.urls {
			if err := copyTree(filepath.Join(in.storeDir, fmt.Sprintf("node%d", i), "wal"), filepath.Join(dir, fmt.Sprintf("node%d", i), "wal")); err != nil {
				return nil, err
			}
		}
		var err error
		if replicas, err = openReplicas(dir, in.urls, rec); err != nil {
			return nil, err
		}
		defer closeAll(replicas)
		for d := range in.digests {
			stores[d] = replicas[in.leader[d]]
		}
	}
	regs := make([]*registry.Registry, len(in.digests))
	for d, dg := range in.digests {
		sp := rec.start("registrystore.load", 0, 0)
		r, _, err := stores[d].Load(dg, analyses[d])
		sp.end()
		if err != nil {
			return nil, err
		}
		regs[d] = r
	}

	fail := func(format string, args ...any) {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
	t0 := time.Now()
	for i, o := range in.ops[:n] {
		if i == overheadOps {
			st.prefixWall = time.Since(t0)
		}
		a, reg, d := analyses[o.design], regs[o.design], o.design
		id := i + 1
		if o.kind == opIssue {
			root := rec.start("serve.issue", id, 0)
			buyer := o.buyer + "~replay"
			sp := rec.start("registry.issue", id, root.id())
			items, err := reg.IssueBatch(ctx, a, []string{buyer})
			sp.end()
			if err != nil {
				return nil, err
			}
			recs := []registrystore.Record{{Buyer: buyer, Value: items[0].Value.String()}}
			sp = rec.start("registrystore.append", id, root.id())
			_, err = stores[d].Append(ctx, in.digests[d], reg, recs)
			sp.end()
			if err != nil {
				return nil, err
			}
			if d == 0 {
				st.issued = append(st.issued, recs...)
			}
			c0 := satCounter("sat.conflicts")
			sp = rec.start("core.verify", id, root.id())
			asg, err := a.AssignmentFromInt(items[0].Value)
			if err == nil {
				verdict, verr := a.SharedVerifier().VerifyCtx(ctx, asg)
				if verr == nil && !verdict.Equivalent {
					fail("replay issue %s: copy not equivalent", buyer)
				}
				err = verr
			}
			sp.end()
			st.conflicts += satCounter("sat.conflicts") - c0
			st.verifies++
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			sp = rec.start("benchfmt.write", id, root.id())
			err = benchfmt.Write(&buf, items[0].Circuit)
			sp.end()
			if err != nil {
				return nil, err
			}
			root.end()
			continue
		}
		root := rec.start("serve.trace", id, 0)
		sp := rec.start("benchfmt.parse", id, root.id())
		suspect, err := benchfmt.Parse(bytes.NewReader(in.pool[d][o.copy].body))
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = rec.start("core.extract", id, root.id())
		_, err = core.Extract(a, suspect)
		extractMS := sp.end()
		if err != nil {
			return nil, err
		}
		sp = rec.start("registry.trace_exact", id, root.id())
		buyer, err := reg.TraceExact(a, suspect)
		exactMS := sp.end()
		if err != nil || buyer != o.buyer {
			fail("replay trace %s: traced to %q (%v)", o.buyer, buyer, err)
		}
		root.end()
		// TraceExact extracts again before its scan; its self time is the
		// scan alone.
		rec.sample("registry.trace_exact_self", exactMS-extractMS)
	}
	if n == overheadOps {
		st.prefixWall = time.Since(t0)
	}
	return st, nil
}

// replicateProbe times replication where the serve replay does not
// replicate (a single node): three fresh in-process replicated nodes append
// recs one at a time through node 0.
func replicateProbe(ctx context.Context, dir, digest string, recs []registrystore.Record, rec *recorder) error {
	ids := []string{"probe0", "probe1", "probe2"}
	nodes, err := openReplicas(dir, ids, rec)
	if err != nil {
		return err
	}
	defer closeAll(nodes)
	for _, r := range recs {
		// The log store ignores the registry argument.
		if _, err := nodes[0].Append(ctx, digest, nil, []registrystore.Record{r}); err != nil {
			return err
		}
	}
	return nil
}
