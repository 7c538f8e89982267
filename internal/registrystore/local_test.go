package registrystore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/registry"
)

// localAnalysis analyses a suite circuit for the store tests.
func localAnalysis(t testing.TB, name string) *core.Analysis {
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

// writeSnapshot writes reg in the legacy single-node snapshot format, as
// an earlier daemon left it: <digest>.registry.json in the store root.
func writeSnapshot(t *testing.T, dir, fileDigest string, reg *registry.Registry) string {
	t.Helper()
	path := filepath.Join(dir, fileDigest+legacySuffix)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := reg.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// issuedRegistry returns a registry for a holding value-only records for
// the given buyers.
func issuedRegistry(t *testing.T, a *core.Analysis, buyers ...string) *registry.Registry {
	t.Helper()
	reg := registry.New(a)
	if _, err := reg.IssueBatchValues(context.Background(), a, buyers); err != nil {
		t.Fatal(err)
	}
	return reg
}

// sortedRecords lists reg's records sorted by buyer — the order an import
// appends them in.
func sortedRecords(reg *registry.Registry) []Record {
	var out []Record
	for _, b := range reg.Buyers() {
		v, _ := reg.Value(b)
		out = append(out, Record{Buyer: b, Value: v})
	}
	return out
}

func openLocal(t *testing.T, dir string) *Replicated {
	t.Helper()
	st, err := OpenLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestOpenLocalImportsLegacySnapshot: a store directory from an earlier
// single-node daemon opens with its snapshot imported into the WAL in
// buyer order, the snapshot renamed out of the way, and the registry
// reloading identically — then and after a reopen, which imports nothing.
func TestOpenLocalImportsLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	a := localAnalysis(t, "c880")
	digest := registry.DesignDigest(a)
	reg := issuedRegistry(t, a, "carol", "alice", "bob")
	snap := writeSnapshot(t, dir, digest, reg)

	st := openLocal(t, dir)
	want := sortedRecords(reg)
	if got := st.Records(digest); !reflect.DeepEqual(got, want) {
		t.Fatalf("imported records = %v, want %v", got, want)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Errorf("snapshot still in place after import (stat: %v)", err)
	}
	if _, err := os.Stat(snap + importedSuffix); err != nil {
		t.Errorf("imported snapshot not kept: %v", err)
	}
	loaded, seq, err := st.Load(digest, a)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || !reflect.DeepEqual(sortedRecords(loaded), want) {
		t.Errorf("loaded seq %d records %v, want 3 %v", seq, sortedRecords(loaded), want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openLocal(t, dir)
	defer st.Close()
	if got := st.Records(digest); !reflect.DeepEqual(got, want) {
		t.Errorf("after reopen records = %v, want %v", got, want)
	}
}

// TestOpenLocalImportIdempotentAfterCrash: a crash after the import's WAL
// fsync but before the snapshot rename leaves both; the next open imports
// again without duplicating a record and completes the rename.
func TestOpenLocalImportIdempotentAfterCrash(t *testing.T) {
	dir := t.TempDir()
	a := localAnalysis(t, "c432")
	digest := registry.DesignDigest(a)
	reg := issuedRegistry(t, a, "x", "y")
	snap := writeSnapshot(t, dir, digest, reg)
	want := sortedRecords(reg)

	// The first import's durable half: the records in the WAL.
	w, err := OpenWAL(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Append(digest, want); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st := openLocal(t, dir)
	defer st.Close()
	if got := st.Records(digest); !reflect.DeepEqual(got, want) {
		t.Errorf("re-import records = %v, want %v", got, want)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Errorf("snapshot not renamed by the re-import (stat: %v)", err)
	}
}

// TestOpenLocalRejectsMisnamedSnapshot: a snapshot whose body belongs to a
// different design than its file name fails the open and imports nothing.
func TestOpenLocalRejectsMisnamedSnapshot(t *testing.T) {
	dir := t.TempDir()
	a := localAnalysis(t, "c432")
	body := registry.DesignDigest(a)
	other := strings.Repeat("ab", 16)
	snap := writeSnapshot(t, dir, other, issuedRegistry(t, a, "x"))

	st, err := OpenLocal(dir)
	if err == nil {
		st.Close()
		t.Fatal("misnamed snapshot imported")
	}
	if !strings.Contains(err.Error(), body) {
		t.Errorf("error %q does not name the body digest", err)
	}
	if _, serr := os.Stat(snap); serr != nil {
		t.Errorf("rejected snapshot was moved: %v", serr)
	}
	w, err := OpenWAL(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if n := w.Total(other) + w.Total(body); n != 0 {
		t.Errorf("%d records imported from a rejected snapshot", n)
	}
}

// TestOpenLocalRejectsConflictingSnapshot: a snapshot recording a
// different value for a buyer the WAL already holds fails the open and
// leaves both the WAL and the snapshot as they were.
func TestOpenLocalRejectsConflictingSnapshot(t *testing.T) {
	dir := t.TempDir()
	a := localAnalysis(t, "c432")
	digest := registry.DesignDigest(a)
	reg := issuedRegistry(t, a, "x")
	v, _ := reg.Value("x")

	w, err := OpenWAL(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	wrong := Record{Buyer: "x", Value: v + "1"}
	if _, _, err := w.Append(digest, []Record{wrong}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	snap := writeSnapshot(t, dir, digest, reg)

	st, err := OpenLocal(dir)
	if err == nil {
		st.Close()
		t.Fatal("conflicting snapshot imported")
	}
	if !strings.Contains(err.Error(), "conflicting record") {
		t.Errorf("error %q, want a conflicting-record error", err)
	}
	if _, serr := os.Stat(snap); serr != nil {
		t.Errorf("rejected snapshot was moved: %v", serr)
	}
	w, err = OpenWAL(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Records(digest); !reflect.DeepEqual(got, []Record{wrong}) {
		t.Errorf("WAL after rejected import = %v, want %v", got, []Record{wrong})
	}
}

// BenchmarkOpenLocalAppend measures one single-record Append — the
// single-node issue path's durable write — on a store already holding a
// 10k-record registry for the design.
func BenchmarkOpenLocalAppend(b *testing.B) {
	st, err := OpenLocal(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	seed := make([]Record, 10000)
	for i := range seed {
		seed[i] = Record{Buyer: fmt.Sprintf("buyer-%05d", i), Value: fmt.Sprintf("%d", 1e12+i)}
	}
	if _, err := st.Append(ctx, walTestDigest, nil, seed); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := Record{Buyer: fmt.Sprintf("new-%d", i), Value: fmt.Sprintf("%d", 2e12+i)}
		if _, err := st.Append(ctx, walTestDigest, nil, []Record{rec}); err != nil {
			b.Fatal(err)
		}
	}
}
