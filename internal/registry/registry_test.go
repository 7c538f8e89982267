package registry

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
)

func analyzed(t testing.TB, name string) *core.Analysis {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIssueAndTraceExact(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	copies := map[string]*circuit.Circuit{}
	for _, buyer := range []string{"alpha", "beta", "gamma"} {
		cp, v, err := r.Issue(a, buyer)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() < 0 {
			t.Fatal("negative fingerprint")
		}
		copies[buyer] = cp
	}
	if got := r.Buyers(); len(got) != 3 || got[0] != "alpha" {
		t.Fatalf("Buyers = %v", got)
	}
	// Trace each verbatim copy back (heredity: trace works on a clone).
	for buyer, cp := range copies {
		got, err := r.TraceExact(a, cp.Clone())
		if err != nil {
			t.Fatalf("%s: %v", buyer, err)
		}
		if got != buyer {
			t.Errorf("traced %q, want %q", got, buyer)
		}
	}
	// Re-issuing is idempotent: same fingerprint, traces to same buyer.
	cp2, _, err := r.Issue(a, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.TraceExact(a, cp2)
	if err != nil || got != "alpha" {
		t.Fatalf("re-issue trace: %v %v", got, err)
	}
	// An unregistered fingerprint is reported as such.
	if _, err := r.TraceExact(a, a.Circuit.Clone()); err == nil {
		t.Error("clean copy traced to a buyer")
	}
	// Empty buyer name rejected.
	if _, _, err := r.Issue(a, ""); err == nil {
		t.Error("empty buyer accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a := analyzed(t, "c432")
	r := New(a)
	cp, _, err := r.Issue(a, "zeta")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "zeta") || !strings.Contains(buf.String(), "digest") {
		t.Errorf("serialised registry malformed:\n%s", buf.String())
	}
	r2, err := Load(bytes.NewReader(buf.Bytes()), a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.TraceExact(a, cp)
	if err != nil || got != "zeta" {
		t.Fatalf("loaded registry trace: %v %v", got, err)
	}
}

func TestDigestMismatchRejected(t *testing.T) {
	a1 := analyzed(t, "c432")
	a2 := analyzed(t, "c880")
	r := New(a1)
	if _, _, err := r.Issue(a2, "x"); err == nil {
		t.Error("issue against wrong design accepted")
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), a2); err == nil {
		t.Error("load against wrong design accepted")
	}
	if _, err := r.TraceExact(a2, a2.Circuit); err == nil {
		t.Error("trace against wrong design accepted")
	}
	// Corrupt JSON rejected.
	if _, err := Load(strings.NewReader("{nope"), a1); err == nil {
		t.Error("corrupt JSON accepted")
	}
}

func TestTraceScoresAfterCollusion(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	var copies []*circuit.Circuit
	buyers := []string{"p1", "p2", "p3", "p4", "p5"}
	for _, b := range buyers {
		cp, _, err := r.Issue(a, b)
		if err != nil {
			t.Fatal(err)
		}
		copies = append(copies, cp)
	}
	// p1 and p2 collude by averaging their netlists through the attack
	// package (exercised indirectly via TraceScores on a forged copy built
	// from p1's instance with p2-differing sites reset). Here we simply
	// score p1's verbatim copy: p1 must rank first with fraction 1.0.
	scores, err := r.TraceScores(a, copies[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 5 {
		t.Fatalf("%d scores", len(scores))
	}
	if scores[0].Name != "p1" || scores[0].Fraction() != 1.0 {
		t.Errorf("top score %q %.3f, want p1 at 1.0", scores[0].Name, scores[0].Fraction())
	}
	for _, s := range scores[1:] {
		if s.Name != "p1" && s.Fraction() == 1.0 && s.TotalPresent > 0 {
			t.Errorf("innocent %q also scores 1.0", s.Name)
		}
	}
}

func TestDigestSensitivity(t *testing.T) {
	a := analyzed(t, "c432")
	d1 := DesignDigest(a)
	// A different analysis option set (fewer targets) changes the digest.
	spec, err := bench.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(cell.Default())
	opts.MaxTargetsPerLocation = 1
	a2, err := core.Analyze(spec.Build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	d2 := DesignDigest(a2)
	if a.TotalTargets() != a2.TotalTargets() {
		if d1 == d2 {
			t.Error("digest ignored analysis shape change")
		}
	}
	// Deterministic.
	if DesignDigest(a) != d1 {
		t.Error("digest not deterministic")
	}
}

// TestConcurrentIssueRace is the -race regression for the registry's
// goroutine-safety contract: many goroutines issue distinct buyers while
// others trace, list and save concurrently. Run with -race (make ci does).
func TestConcurrentIssueRace(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	const buyers = 16
	copies := make([]*circuit.Circuit, buyers)
	var wg sync.WaitGroup
	errs := make([]error, buyers)
	for i := 0; i < buyers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp, _, err := r.Issue(a, fmt.Sprintf("buyer-%02d", i))
			copies[i], errs[i] = cp, err
		}(i)
	}
	// Concurrent readers: listing, serialising and tracing while issuance
	// is in flight must not race (values may be mid-flight, errors are ok).
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				_ = r.Buyers()
				_ = r.NumIssued()
				if err := r.Save(io.Discard); err != nil {
					t.Error(err)
				}
				_, _ = r.TraceExact(a, a.Circuit)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("buyer %d: %v", i, err)
		}
	}
	if got := r.NumIssued(); got != buyers {
		t.Fatalf("NumIssued = %d, want %d", got, buyers)
	}
	// Every concurrently issued copy traces back to its buyer.
	for i, cp := range copies {
		want := fmt.Sprintf("buyer-%02d", i)
		got, err := r.TraceExact(a, cp)
		if err != nil || got != want {
			t.Errorf("copy %d traced to %q (%v), want %q", i, got, err, want)
		}
	}
}

// TestIssueBatch: one call mints every buyer, agrees with the serial Issue
// path, and re-batching is idempotent (recorded values, Fresh=false).
func TestIssueBatch(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	serial, sv, err := r.Issue(a, "pre")
	if err != nil {
		t.Fatal(err)
	}

	buyers := []string{"a", "b", "c", "pre"}
	items, err := r.IssueBatch(context.Background(), a, buyers)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4", len(items))
	}
	for i, it := range items {
		if it.Buyer != buyers[i] {
			t.Errorf("item %d buyer %q, want %q", i, it.Buyer, buyers[i])
		}
		got, err := r.TraceExact(a, it.Circuit.Clone())
		if err != nil || got != it.Buyer {
			t.Errorf("batch copy for %q traced to %q (%v)", it.Buyer, got, err)
		}
	}
	// The pre-issued buyer was re-minted, not re-reserved.
	pre := items[3]
	if pre.Fresh {
		t.Error("pre-issued buyer marked Fresh in batch")
	}
	if pre.Value.Cmp(sv) != 0 {
		t.Errorf("batch re-mint value %s, want serial %s", pre.Value, sv)
	}
	var sb, bb bytes.Buffer
	if err := benchfmt.Write(&sb, serial); err != nil {
		t.Fatal(err)
	}
	if err := benchfmt.Write(&bb, pre.Circuit); err != nil {
		t.Fatal(err)
	}
	if sb.String() != bb.String() {
		t.Error("batch re-mint differs from serial copy")
	}

	// Re-batching the whole list is idempotent.
	again, err := r.IssueBatch(context.Background(), a, buyers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i].Fresh {
			t.Errorf("re-batch item %d marked Fresh", i)
		}
		if again[i].Value.Cmp(items[i].Value) != 0 {
			t.Errorf("re-batch value for %q changed", again[i].Buyer)
		}
	}
	if got := len(r.Buyers()); got != 4 {
		t.Errorf("registry holds %d buyers, want 4", got)
	}
}

// TestIssueBatchValidation: duplicate and empty buyer names reject the
// whole batch before any record is created.
func TestIssueBatchValidation(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	if _, err := r.IssueBatch(context.Background(), a, []string{"x", "x"}); err == nil {
		t.Error("duplicate buyers accepted")
	}
	if _, err := r.IssueBatch(context.Background(), a, []string{"x", ""}); err == nil {
		t.Error("empty buyer accepted")
	}
	if got := len(r.Buyers()); got != 0 {
		t.Errorf("rejected batch left %d records behind", got)
	}
}

// TestIssueBatchCancellation: a context cancelled mid-batch returns an
// error and releases every fresh reservation, leaving pre-existing records
// untouched.
func TestIssueBatchCancellation(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	if _, _, err := r.Issue(a, "keep"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.IssueBatch(ctx, a, []string{"keep", "n1", "n2"}); err == nil {
		t.Fatal("cancelled batch succeeded")
	}
	if got := r.Buyers(); len(got) != 1 || got[0] != "keep" {
		t.Errorf("after cancelled batch Buyers = %v, want [keep]", got)
	}
}

// TestReleaseItems keeps non-fresh records: releasing a failed batch must
// never delete a buyer who was issued before the batch started.
func TestReleaseItems(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	if _, _, err := r.Issue(a, "old"); err != nil {
		t.Fatal(err)
	}
	items, err := r.IssueBatch(context.Background(), a, []string{"old", "new"})
	if err != nil {
		t.Fatal(err)
	}
	r.ReleaseItems(items)
	if got := r.Buyers(); len(got) != 1 || got[0] != "old" {
		t.Errorf("after release Buyers = %v, want [old]", got)
	}
}

// matureRegistry returns a c880 registry holding n value-only records, the
// shape of a long-running deployment's registry.
func matureRegistry(t testing.TB, a *core.Analysis, n int) *Registry {
	t.Helper()
	buyers := make([]string, n)
	for i := range buyers {
		buyers[i] = fmt.Sprintf("buyer-%05d", i)
	}
	r := New(a)
	if _, err := r.IssueBatchValues(context.Background(), a, buyers); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTraceExactMatureRegistry: on a 10k-record registry TraceExact finds
// the issued copy through the reverse index, misses with the same error an
// unindexed scan gave, and stays correct after a release, a JSON round
// trip and a Restore rebuild the index.
func TestTraceExactMatureRegistry(t *testing.T) {
	a := analyzed(t, "c880")
	r := matureRegistry(t, a, 10000)
	cp, _, err := r.Issue(a, "target")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.TraceExact(a, cp); err != nil || got != "target" {
		t.Fatalf("TraceExact = %q, %v; want target", got, err)
	}
	outsider, outVal, err := New(a).Issue(a, "outsider")
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.TraceExact(a, outsider)
	want := fmt.Sprintf("registry: fingerprint %s matches no issued copy", outVal)
	if err == nil || err.Error() != want {
		t.Fatalf("outsider trace error = %v, want %q", err, want)
	}

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, a)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 0, r.NumIssued())
	for _, b := range r.Buyers() {
		v, _ := r.Value(b)
		recs = append(recs, Record{Buyer: b, Value: v})
	}
	restored, err := Restore(a, recs)
	if err != nil {
		t.Fatal(err)
	}
	for name, reg := range map[string]*Registry{"loaded": loaded, "restored": restored} {
		if got, err := reg.TraceExact(a, cp); err != nil || got != "target" {
			t.Errorf("%s: TraceExact = %q, %v; want target", name, got, err)
		}
		if n := reg.NumIssued(); n != 10001 {
			t.Errorf("%s: %d records, want 10001", name, n)
		}
	}

	items, err := r.IssueBatch(context.Background(), a, []string{"fleeting"})
	if err != nil {
		t.Fatal(err)
	}
	r.ReleaseItems(items)
	if _, err := r.TraceExact(a, items[0].Circuit); err == nil {
		t.Error("released copy still traces")
	}
}

// TestRestoreChecksEveryRecord: Restore applies Adopt's per-record checks
// and rejects what Adopt rejects.
func TestRestoreChecksEveryRecord(t *testing.T) {
	a := analyzed(t, "c432")
	for _, tc := range []struct {
		name string
		recs []Record
		want string // error substring; "" means success
	}{
		{"ok", []Record{{"a", "1"}, {"b", "2"}, {"a", "1"}}, ""},
		{"signed", []Record{{"a", "-7"}, {"b", "+8"}}, ""},
		{"empty buyer", []Record{{"", "1"}}, "empty buyer"},
		{"not decimal", []Record{{"a", "0x1f"}}, "corrupt value"},
		{"empty value", []Record{{"a", ""}}, "corrupt value"},
		{"bare sign", []Record{{"a", "-"}}, "corrupt value"},
		{"conflict", []Record{{"a", "1"}, {"a", "2"}}, "conflicting record"},
		{"collision", []Record{{"a", "1"}, {"b", "1"}}, "collision"},
	} {
		r, err := Restore(a, tc.recs)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			} else if r.NumIssued() != 2 {
				t.Errorf("%s: %d records, want 2", tc.name, r.NumIssued())
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		// Adopt agrees record by record.
		adopt := New(a)
		var aerr error
		for _, rec := range tc.recs {
			if aerr = adopt.Adopt(rec.Buyer, rec.Value); aerr != nil {
				break
			}
		}
		if aerr == nil || aerr.Error() != err.Error() {
			t.Errorf("%s: Adopt error %v, Restore error %v", tc.name, aerr, err)
		}
	}
}

// BenchmarkDesignDigest measures the design digest the registry checks on
// every issue and trace: fresh is the full serialise-and-hash of c5315,
// cached the per-call cost once the analysis holds it.
func BenchmarkDesignDigest(b *testing.B) {
	spec, err := bench.ByName("c5315")
	if err != nil {
		b.Fatal(err)
	}
	c := spec.Build()
	analyze := func() *core.Analysis {
		a, err := core.Analyze(c, core.DefaultOptions(cell.Default()))
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a := analyze()
			b.StartTimer()
			DesignDigest(a)
		}
	})
	b.Run("cached", func(b *testing.B) {
		a := analyze()
		DesignDigest(a)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			DesignDigest(a)
		}
	})
}
