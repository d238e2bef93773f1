package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testSpec is a small 4-point grid (2 workloads × 2 seeds) that runs in
// well under a second per point at scale 0.05.
const testSpec = `{"workloads": ["JSON", "2D-Sum"], "seeds": [1, 2], "scale": 0.05, "max_app_insts": 80000}`

// readEvents decodes NDJSON events from r until the terminal done/error
// event, limit events, or EOF.
func readEvents(t *testing.T, r *bufio.Scanner, limit int) []serveEvent {
	t.Helper()
	var evs []serveEvent
	for len(evs) < limit && r.Scan() {
		var ev serveEvent
		if err := json.Unmarshal(r.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", r.Text(), err)
		}
		evs = append(evs, ev)
		if ev.Event == "done" || ev.Event == "error" {
			break
		}
	}
	return evs
}

func (j *sweepJob) executedCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.executed
}

// TestServeDisconnectReconnect is the serve acceptance test: submit a
// spec, read a couple of events, drop the connection mid-run, reconnect
// by spec hash, and verify the stream completes with every point
// delivered exactly once — and, critically, that no completed point was
// re-simulated because of the disconnect.
func TestServeDisconnectReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	srv, err := newSweepServer(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.cancel()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Submit and read just the hello plus the first result, then drop
	// the connection while the sweep is still running.
	resp, err := http.Post(ts.URL+"/", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	first := readEvents(t, sc, 2)
	resp.Body.Close() // disconnect mid-stream
	if len(first) < 1 || first[0].Event != "hello" {
		t.Fatalf("stream did not start with hello: %+v", first)
	}
	hash := first[0].SpecHash
	if hash == "" || first[0].Points != 4 {
		t.Fatalf("bad hello: %+v", first[0])
	}

	// Reconnect by hash and read to completion. The replay log carries
	// everything that finished while no client was attached.
	deadline := time.After(2 * time.Minute)
	seen := map[int]bool{}
	for len(seen) < 4 {
		select {
		case <-deadline:
			t.Fatalf("sweep did not complete; %d/4 results seen", len(seen))
		default:
		}
		resp, err := http.Get(ts.URL + "/sweeps/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reconnect status = %d", resp.StatusCode)
		}
		evs := readEvents(t, bufio.NewScanner(resp.Body), 1000)
		resp.Body.Close()
		if evs[0].Event != "hello" || evs[0].SpecHash != hash {
			t.Fatalf("reconnect stream did not start with matching hello: %+v", evs[0])
		}
		for _, ev := range evs {
			switch ev.Event {
			case "result":
				if ev.Result == nil {
					t.Fatalf("result event without result: %+v", ev)
				}
				if seen[ev.Result.Index] && ev.Event == "result" {
					// Replay repeats earlier points on reconnect — that is
					// the protocol, not recomputation.
					continue
				}
				seen[ev.Result.Index] = true
			case "error":
				t.Fatalf("sweep failed: %s", ev.Err)
			}
		}
		if last := evs[len(evs)-1]; last.Event == "done" {
			break
		}
	}
	if len(seen) != 4 {
		t.Fatalf("got results for %d points, want 4 (seen: %v)", len(seen), seen)
	}

	// The acceptance criterion: the disconnect did not cause any
	// completed point to be re-simulated.
	j, err := srv.lookup(hash)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.executedCount(); got != 4 {
		t.Fatalf("server simulated %d points for a 4-point grid; disconnect must not recompute", got)
	}

	// Resubmitting the identical spec attaches to the finished job and
	// replays it without running anything.
	resp, err = http.Post(ts.URL+"/", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	evs := readEvents(t, bufio.NewScanner(resp.Body), 1000)
	resp.Body.Close()
	if last := evs[len(evs)-1]; last.Event != "done" {
		t.Fatalf("resubmit replay did not end with done: %+v", last)
	}
	if got := j.executedCount(); got != 4 {
		t.Fatalf("resubmit recomputed: executed = %d, want 4", got)
	}
}

// TestServeRestartResumesFromCheckpoint verifies the server-restart
// path: a second server over the same state directory revives the job
// from its persisted spec and checkpoint, replaying all completed
// points without re-simulating them.
func TestServeRestartResumesFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	srv1, err := newSweepServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)

	resp, err := http.Post(ts1.URL+"/", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	evs := readEvents(t, bufio.NewScanner(resp.Body), 1000)
	resp.Body.Close()
	if last := evs[len(evs)-1]; last.Event != "done" {
		t.Fatalf("first run did not complete: %+v", last)
	}
	hash := evs[0].SpecHash
	srv1.cancel()
	ts1.Close()

	// "Restart": a fresh server over the same directory. The job is
	// revived from <hash>.spec.json and its checkpoint satisfies every
	// point, so nothing is simulated.
	srv2, err := newSweepServer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.cancel()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	resp, err = http.Get(ts2.URL + "/sweeps/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	evs = readEvents(t, bufio.NewScanner(resp.Body), 1000)
	resp.Body.Close()
	results := 0
	for _, ev := range evs {
		if ev.Event == "result" {
			results++
		}
	}
	if results != 4 {
		t.Fatalf("revived job replayed %d results, want 4 (events: %+v)", results, evs)
	}
	if last := evs[len(evs)-1]; last.Event != "done" {
		t.Fatalf("revived stream did not end with done: %+v", last)
	}
	j, err := srv2.lookup(hash)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.executedCount(); got != 0 {
		t.Fatalf("revived job re-simulated %d points, want 0", got)
	}
}

// TestServeRejectsShardedSpec: two shards of one sweep share a spec
// hash and would collide on the job key, so serve refuses them.
func TestServeRejectsShardedSpec(t *testing.T) {
	srv, err := newSweepServer(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.cancel()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := `{"workloads": ["JSON"], "shard": "0/2", "max_app_insts": 1000}`
	resp, err := http.Post(ts.URL+"/", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sharded spec accepted with status %d, want 400", resp.StatusCode)
	}
}

// TestServeListsJobs checks the registry endpoint shape.
func TestServeListsJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	srv, err := newSweepServer(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.cancel()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := `{"workloads": ["JSON"], "scale": 0.05, "max_app_insts": 50000}`
	resp, err := http.Post(ts.URL+"/", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	evs := readEvents(t, bufio.NewScanner(resp.Body), 1000)
	resp.Body.Close()
	if last := evs[len(evs)-1]; last.Event != "done" {
		t.Fatalf("run did not complete: %+v", last)
	}

	resp, err = http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		SpecHash string `json:"spec_hash"`
		Points   int    `json:"points"`
		Done     int    `json:"done"`
		Running  bool   `json:"running"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Points != 1 || list[0].Done != 1 || list[0].Running {
		t.Fatalf("unexpected job list: %+v", list)
	}
	if !strings.HasPrefix(list[0].SpecHash, "sj1-") {
		t.Fatalf("job list spec hash %q not in sj1- form", list[0].SpecHash)
	}
}

// TestServeRejectsPathTraversal: the attach URL's hash names files in
// the state directory, so anything but a spec hash is a 404 — a
// "../name" path must not read, run, or checkpoint a spec outside it.
func TestServeRejectsPathTraversal(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "jobs")
	outside := `{"workloads": ["JSON"], "scale": 0.05, "max_app_insts": 1000}`
	if err := os.WriteFile(filepath.Join(root, "outside.spec.json"), []byte(outside), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := newSweepServer(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.cancel()

	for _, path := range []string{"/sweeps/../outside", "/sweeps/..%2Foutside", "/sweeps/sj1-0123", "/sweeps/SJ1-0123456789ABCDEF0123456789ABCDEF"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		cancel()
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, rec.Code)
		}
	}
	if len(srv.jobs) != 0 {
		t.Errorf("rejected paths started %d jobs", len(srv.jobs))
	}
	if _, err := os.Stat(filepath.Join(root, "outside.ckpt.jsonl")); err == nil {
		t.Error("a checkpoint was written outside the state directory")
	}
}

// TestServeRejectsInvalidSpec: a spec SweepSpec.Sweep rejects — here an
// unknown workload and a negative scale — is a 400 before any job
// starts, not a job that fails at its first point.
func TestServeRejectsInvalidSpec(t *testing.T) {
	dir := t.TempDir()
	srv, err := newSweepServer(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.cancel()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, spec := range []string{
		`{"workloads": ["no-such-workload"], "max_app_insts": 1000}`,
		`{"mixes": [["JSON", "no-such-workload"]], "max_app_insts": 1000}`,
		`{"workloads": ["JSON"], "scale": -1, "max_app_insts": 1000}`,
	} {
		resp, err := http.Post(ts.URL+"/", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", spec, resp.StatusCode)
		}
	}
	if len(srv.jobs) != 0 {
		t.Errorf("invalid specs started %d jobs", len(srv.jobs))
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("invalid specs left %d files in the state directory", len(files))
	}
}
