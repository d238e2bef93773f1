package sweepjob

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Cache is a content-addressed store of completed point results: one
// file per point key, in the checkpoint format (header + single record),
// so cached entries are self-describing and readable by the same tools
// as checkpoints. The key is a Hash over everything that determines the
// point's result — the fully resolved Config, the workload or mix, the
// workload params, and the spec version — so repeated, overlapping, and
// resumed sweeps share entries regardless of where the point sits in
// any particular grid.
//
// Writes are atomic (tmp file + rename), so a crash mid-Put leaves at
// worst a stale tmp file, never a torn entry. Reads treat any damaged,
// truncated, or mismatched file as a miss: the cache is an accelerator,
// not a source of truth, and a bad entry just means the point simulates
// again (and is rewritten).
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweepjob: cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Path returns the entry file for key. Keys are Hash outputs
// ("sj1-<hex>"), which are filename-safe by construction.
func (c *Cache) Path(key string) string {
	return filepath.Join(c.dir, key+".jsonl")
}

// Get returns the cached raw Result for key, or ok=false on any miss —
// absent, torn, corrupt, or keyed differently (a hash-collision guard:
// the entry header echoes the key).
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	hdr, recs, _, torn, err := Load(c.Path(key))
	if err != nil || torn || hdr.SpecHash != key || len(recs) != 1 {
		return nil, false
	}
	raw, ok := recs[0]
	return raw, ok
}

// Put stores raw as the result for key, atomically replacing any
// existing entry.
func (c *Cache) Put(key string, raw json.RawMessage) error {
	hdr, err := json.Marshal(Header{
		Format: FormatName, Version: FormatVersion, SpecHash: key, Points: 1,
	})
	if err != nil {
		return err
	}
	rec, err := json.Marshal(Record{Index: 0, Result: raw})
	if err != nil {
		return err
	}
	data := make([]byte, 0, len(hdr)+len(rec)+2)
	data = append(data, hdr...)
	data = append(data, '\n')
	data = append(data, rec...)
	data = append(data, '\n')

	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("sweepjob: cache put: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("sweepjob: cache put: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sweepjob: cache put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweepjob: cache put: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.Path(key)); err != nil {
		return fmt.Errorf("sweepjob: cache put: %w", err)
	}
	return nil
}
