//go:build !race

package virtuoso

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resultsPin ties the canonical report of every spec set in
// testdata/results/ (the sets scripts/results_diff.sh compares) to the
// specVersion its digests were taken at. Each digest is the SHA-256 of
// the set's CanonicalJSON with spec_hash blanked, so the pin moves with
// simulated results only, not with the hash's own inputs.
var resultsPin = struct {
	specVersion int
	digests     map[string]string
}{
	specVersion: 2,
	digests: map[string]string{
		"multi":  "2593a4afc94c439aa3c8c9a47b003e710be15e579634255d2bb79fe65bf78112",
		"single": "b0132b1e7d8a14597909b4bb7b2d8cd97e2a8a012e64471116357de993e69615",
		"swap":   "7412486669915041623850203dde0c101cbd4716de6812ac921a4efc55f7f622",
		"tiers":  "5811ef7dc034feb00555f12a9d9dede8a56c4a7876eb706eee01aaf3401da745",
	},
}

// TestResultsPinnedToSpecVersion reruns every spec set in-process and
// fails when a report moves while specVersion stays: a change to
// simulated results must bump specVersion, so cached points,
// checkpoints and shard merges of the old version fail loudly instead
// of mixing with the new. The race detector slows the sets several
// times over, so the test is not built under -race.
func TestResultsPinnedToSpecVersion(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "results", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no spec sets in testdata/results: %v", err)
	}
	got := make(map[string]string, len(paths))
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		got[name] = resultsDigest(t, path)
	}
	same := specVersion == resultsPin.specVersion && len(got) == len(resultsPin.digests)
	for name, d := range got {
		same = same && resultsPin.digests[name] == d
	}
	if same {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "canonical reports differ from the pin taken at specVersion %d (specVersion is %d).\n",
		resultsPin.specVersion, specVersion)
	next := specVersion
	if next == resultsPin.specVersion {
		next++
	}
	b.WriteString("If simulated results changed on purpose, bump specVersion in spec.go and re-pin resultsPin with\n")
	fmt.Fprintf(&b, "\tspecVersion: %d,\n", next)
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		fmt.Fprintf(&b, "\t%q: %q,\n", name, got[name])
	}
	b.WriteString("If they should not have changed, the change under test moved results: run scripts/results_diff.sh against its parent.")
	t.Fatal(b.String())
}

// resultsDigest runs the sweep spec at path and hashes its canonical
// report with spec_hash blanked.
func resultsDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSweepSpec(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	sweep, err := spec.Sweep()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	rep, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	rep.SpecHash = ""
	canon, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}
