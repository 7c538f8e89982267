package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cell"
)

// goldenDigests pins the structural digest of every suite circuit: durable
// registries are filed under it, so a change here orphans every store.
var goldenDigests = map[string]string{
	"c432":  "52d0e602dba8185563f7ce53a65e8350",
	"c499":  "95f7c25f9258f16e2bd08125e2b49c47",
	"c880":  "17ea1442b0dd0ffb2b95f53beefcc911",
	"c1355": "12a503d3797e88b8338c493f3d7592b6",
	"c1908": "5171d06b67471fdef34265cdb0c3a8a6",
	"c3540": "9b831456284b42301c3442d9a9979e8e",
	"c6288": "188c3a3dddcc89baef7cb2d6430d5125",
	"des":   "d36f6611cc71148bc6a69ffa9f535a58",
	"k2":    "6c0ac4bb949e550860ca42e07b4b63a9",
	"t481":  "f0bc351f5f7cd26f9c0a406daebda57c",
	"i10":   "2acf71bec2cb469184c8c36ced8a3e7b",
	"i8":    "f06a57b0a35b3d858b5ad96884772f5d",
	"dalu":  "5997db92232c4622c5be8a027457f192",
	"vda":   "69b9af2b0a624c315c91d622df320daa",
}

// TestDigestCachedMatchesFresh: for every suite circuit the cached digest
// equals a fresh computation, both right away and after the analysis has
// been embedded from, verified against and re-analysed incrementally — the
// uses that must leave Circuit and Locations untouched for the cache to be
// sound — and equals the pinned golden value.
func TestDigestCachedMatchesFresh(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	for _, spec := range bench.Suite() {
		a, err := Analyze(spec.Build(), DefaultOptions(cell.Default()))
		if err != nil {
			t.Fatal(err)
		}
		got := a.Digest()
		if want := goldenDigests[spec.Name]; got != want {
			t.Errorf("%s: digest %s, want %s", spec.Name, got, want)
		}
		if a.NumLocations() > 0 {
			asg := randomAssignment(rng, a)
			if _, err := Embed(a, asg); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			w, err := NewWorking(a, asg)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			if _, err := w.Reanalyze(ctx); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
		}
		if fresh := computeDigest(a); fresh != got {
			t.Errorf("%s: cached digest %s, fresh computation %s", spec.Name, got, fresh)
		}
		if again := a.Digest(); again != got {
			t.Errorf("%s: digest moved from %s to %s", spec.Name, got, again)
		}
	}
}

// TestDigestConcurrent: racing first callers all get the one digest (run
// under -race to check the lazy initialisation).
func TestDigestConcurrent(t *testing.T) {
	a := analyzeBench(t, "c880")
	want := computeDigest(a)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := a.Digest(); got != want {
				t.Errorf("Digest = %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
}
