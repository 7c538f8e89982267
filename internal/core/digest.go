package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// Digest returns the structural identity of the analysed design: a hash of
// the canonical node list plus the location/target/variant shape, so any
// change to the netlist or the analysis options changes it. It is the key
// the issuance registry and its durable store file a design under
// (registry.DesignDigest).
//
// Serialising and hashing the whole circuit costs milliseconds on the
// larger suite circuits, and the registry checks the digest on every issue
// and trace, so it is computed once per Analysis and cached. Caching is
// sound because an Analysis is immutable once AnalyzeCtx, AnalyzeIncremental
// (and so Working.Reanalyze) or AnalyzeBaseline returns it: Circuit and
// Locations are only written while the result is being built, embedding
// and the incremental Working operate on a Circuit.Clone, and a
// re-analysis builds a new Analysis rather than updating the old one.
func (a *Analysis) Digest() string {
	a.digestOnce.Do(func() { a.digest = computeDigest(a) })
	return a.digest
}

// computeDigest hashes the analysed design; Digest caches its result.
func computeDigest(a *Analysis) string {
	h := sha256.New()
	io.WriteString(h, a.Circuit.String())
	for i := range a.Locations {
		loc := &a.Locations[i]
		fmt.Fprintf(h, "L%d:%d:%d:%d;", loc.Primary, loc.FFCRoot, loc.Trigger, len(loc.Targets))
		for j := range loc.Targets {
			fmt.Fprintf(h, "T%d:%d;", loc.Targets[j].Gate, len(loc.Targets[j].Variants))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
