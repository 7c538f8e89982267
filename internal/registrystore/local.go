package registrystore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/registry"
)

// localNode is the replica id of a single-node store: the only member of
// its own replica set.
const localNode = "local"

// Legacy single-node snapshots: earlier single-node daemons kept each
// design's registry as one JSON file, <digest>.registry.json, rewritten in
// full on every issuance. OpenLocal imports each one into the WAL once and
// renames it <digest>.registry.json.imported.
const (
	legacySuffix   = ".registry.json"
	importedSuffix = ".imported"
)

// OpenLocal opens the single-node store rooted at dir: a peerless W=1
// Replicated over dir/wal — the same log, group commit, open-time salvage
// and scrubber a cluster replica runs, with no peers to replicate to. The
// first open of a directory written by an earlier single-node daemon
// imports its legacy snapshots (importLegacy).
func OpenLocal(dir string) (*Replicated, error) {
	r, err := OpenReplicated(ReplicatedConfig{
		Dir: filepath.Join(dir, "wal"), Self: localNode, Nodes: []string{localNode}, W: 1,
	})
	if err != nil {
		return nil, err
	}
	if err := importLegacy(dir, r.wal); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// importLegacy moves every legacy snapshot in dir into the WAL. Per file,
// the records are appended sorted by buyer and the append's fsync returns
// before the file is renamed away, so a crash at any point leaves either
// the snapshot in place (and the next open re-imports it — WAL appends
// dedup by buyer, making that a no-op for records already logged) or the
// records durable in the WAL. A snapshot whose body names a different
// design than its file name, or that disagrees with the WAL about a
// buyer's value, fails the open rather than importing silently.
func importLegacy(dir string, w *WAL) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+legacySuffix))
	if err != nil {
		return fmt.Errorf("registrystore: import: %w", err)
	}
	for _, path := range paths {
		digest := strings.TrimSuffix(filepath.Base(path), legacySuffix)
		if !validDigest(digest) {
			continue
		}
		if err := importSnapshot(path, digest, w); err != nil {
			return fmt.Errorf("registrystore: import %s: %w", filepath.Base(path), err)
		}
	}
	if len(paths) > 0 {
		syncDir(dir)
	}
	return nil
}

// importSnapshot appends one legacy snapshot's records to the WAL, then
// renames the snapshot out of the import set.
func importSnapshot(path, digest string, w *WAL) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap struct {
		Digest string            `json:"digest"`
		Issued map[string]string `json:"issued"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	if snap.Digest != digest {
		return fmt.Errorf("snapshot is for design %q, not %q", snap.Digest, digest)
	}
	recs := make([]Record, 0, len(snap.Issued))
	for buyer, value := range snap.Issued {
		if err := registry.CheckRecord(buyer, value); err != nil {
			return err
		}
		recs = append(recs, Record{Buyer: buyer, Value: value})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Buyer < recs[j].Buyer })
	if _, _, err := w.Append(digest, recs); err != nil {
		return err
	}
	return os.Rename(path, path+importedSuffix)
}
