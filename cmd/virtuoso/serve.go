// sweep serve: a long-lived service that accepts sweep specs and
// streams per-point results as newline-delimited JSON. Jobs are keyed
// by spec hash and backed by checkpoint files, so a job survives both
// client disconnects (the run keeps going server-side; reconnecting
// replays finished points from memory) and server restarts (the spec
// is persisted next to the checkpoint and the job resumes from disk,
// re-simulating nothing that completed).
//
// Protocol (one JSON object per line, in order):
//
//	{"event":"hello","spec_hash":"sj1-…","points":N,"done":D,"total":T}
//	{"event":"result","done":D,"total":T,"eta_ns":…,"result":{…}}   per point
//	{"event":"snapshot","point":I,"snapshot":{…}}                   live only
//	{"event":"done","done":T,"total":T}  or  {"event":"error","error":"…"}
//
// Endpoints: POST / (spec body → submit or attach, stream), GET
// /sweeps/<hash> (attach, stream), GET /sweeps (list). Snapshot events
// stream only while a client is attached during the run — they are
// observation, not results, and are not replayed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	virtuoso "repro"
)

// serveEvent is one NDJSON line of the serve stream.
type serveEvent struct {
	Event    string             `json:"event"`
	SpecHash string             `json:"spec_hash,omitempty"`
	Points   int                `json:"points,omitempty"`
	Done     int                `json:"done,omitempty"`
	Total    int                `json:"total,omitempty"`
	EtaNs    int64              `json:"eta_ns,omitempty"`
	Result   *virtuoso.Result   `json:"result,omitempty"`
	Point    *int               `json:"point,omitempty"`
	Snapshot *virtuoso.Snapshot `json:"snapshot,omitempty"`
	Err      string             `json:"error,omitempty"`
}

// sweepJob is one submitted sweep: a background run plus its replay
// log and live subscribers.
type sweepJob struct {
	hash  string
	total int // points this job runs (whole grid: serve rejects shards)

	mu   sync.Mutex
	log  []serveEvent // result events in completion order, for replay
	subs map[chan serveEvent]bool
	done bool
	err  error

	started  time.Time
	resumed  int // points restored from the checkpoint at job start
	cached   int // points answered by the result cache, not simulated
	executed int // points actually simulated by this process

	cancel context.CancelFunc
}

// attach subscribes a client: it returns a copy of the replay log and
// a channel carrying every later event, with no gap and no duplicate
// between them (both happen under one lock).
func (j *sweepJob) attach() ([]serveEvent, chan serveEvent, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay := append([]serveEvent(nil), j.log...)
	if j.done {
		return replay, nil, true
	}
	ch := make(chan serveEvent, 256)
	j.subs[ch] = true
	return replay, ch, false
}

func (j *sweepJob) detach(ch chan serveEvent) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// publish appends a result-bearing event to the replay log (unless it
// is a transient snapshot) and fans it out. A subscriber too slow to
// drain its buffer is dropped for snapshots and unsubscribed for
// results — it can reconnect and replay without loss.
func (j *sweepJob) publish(ev serveEvent, transient bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !transient {
		j.log = append(j.log, ev)
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			if !transient {
				delete(j.subs, ch)
				close(ch)
			}
		}
	}
}

// finish closes the job: the terminal event is logged for replay and
// every live subscriber's channel is closed after receiving it.
func (j *sweepJob) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done = true
	j.err = err
	ev := serveEvent{Event: "done", Done: len(j.log), Total: j.total}
	if err != nil {
		ev = serveEvent{Event: "error", Err: err.Error()}
	}
	j.log = append(j.log, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
		delete(j.subs, ch)
	}
}

// sweepServer owns the job registry and the state directory where
// specs and checkpoints live.
type sweepServer struct {
	dir      string
	parallel int
	// cache, when non-empty, is a content-addressed point-result cache
	// directory shared by every job (Sweep.Cache): warm points are
	// answered without simulating, and every simulated point warms the
	// cache for later sweeps — including sweeps with different grids
	// that merely overlap this one.
	cache string

	ctx    context.Context // parent of every job run; server shutdown cancels it
	cancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*sweepJob
}

func newSweepServer(dir string, parallel int) (*sweepServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &sweepServer{dir: dir, parallel: parallel, ctx: ctx, cancel: cancel, jobs: make(map[string]*sweepJob)}, nil
}

func (s *sweepServer) specPath(hash string) string { return filepath.Join(s.dir, hash+".spec.json") }
func (s *sweepServer) ckptPath(hash string) string { return filepath.Join(s.dir, hash+".ckpt.jsonl") }

// submit registers (or re-attaches to) the job for spec. The same spec
// hashes to the same job: resubmitting an in-flight or finished sweep
// attaches instead of recomputing.
func (s *sweepServer) submit(spec *virtuoso.SweepSpec, raw []byte) (*sweepJob, error) {
	sweep, err := spec.Sweep()
	if err != nil {
		return nil, err
	}
	if sweep.Shard.Enabled() {
		// Shards of one sweep share its spec hash; admitting them here
		// would collide on the job key and checkpoint file. Sharding is
		// for `sweep run` fan-out; merge the shard files afterwards.
		return nil, fmt.Errorf("sweep serve runs whole grids: shard %s belongs in `virtuoso sweep run -shard`", sweep.Shard)
	}
	hash := sweep.SpecHash()

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[hash]; ok {
		return j, nil
	}
	if err := os.WriteFile(s.specPath(hash), raw, 0o644); err != nil {
		return nil, err
	}
	j := s.startJobLocked(hash, sweep)
	return j, nil
}

// jobHash matches a job key: a spec hash as sweepjob.Hash writes it.
var jobHash = regexp.MustCompile(`^sj1-[0-9a-f]{32}$`)

// lookup finds a job by spec hash, reviving it from the persisted spec
// after a server restart (the checkpoint makes revival cheap: finished
// points restore from disk).
func (s *sweepServer) lookup(hash string) (*sweepJob, error) {
	// The hash names files under s.dir: admit only the form
	// sweepjob.Hash produces, so a URL like /sweeps/../x cannot reach
	// outside it.
	if !jobHash.MatchString(hash) {
		return nil, fmt.Errorf("unknown sweep %q", hash)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[hash]; ok {
		return j, nil
	}
	raw, err := os.ReadFile(s.specPath(hash))
	if err != nil {
		return nil, fmt.Errorf("unknown sweep %s", hash)
	}
	spec, err := virtuoso.ParseSweepSpec(raw)
	if err != nil {
		return nil, fmt.Errorf("sweep %s: persisted spec unreadable: %w", hash, err)
	}
	sweep, err := spec.Sweep()
	if err != nil {
		return nil, err
	}
	return s.startJobLocked(hash, sweep), nil
}

// startJobLocked launches the sweep in the background and wires its
// Progress and Observe hooks into the job's event stream. Caller holds
// s.mu.
func (s *sweepServer) startJobLocked(hash string, sweep *virtuoso.Sweep) *sweepJob {
	total := len(sweep.Points())
	j := &sweepJob{hash: hash, total: total, subs: make(map[chan serveEvent]bool), started: time.Now()}
	jobCtx, cancel := context.WithCancel(s.ctx)
	j.cancel = cancel
	s.jobs[hash] = j

	sweep.Parallel = s.parallel
	sweep.Checkpoint = s.ckptPath(hash)
	sweep.Cache = s.cache
	sweep.Progress = func(ev virtuoso.SweepEvent) {
		if ev.Err != nil {
			return // the terminal error event carries the failure
		}
		j.mu.Lock()
		if ev.FromCache {
			j.cached++
		} else {
			j.executed++
		}
		j.mu.Unlock()
		done, eta := j.doneEta(ev.Done)
		j.publish(serveEvent{Event: "result", Done: done, Total: ev.Total, EtaNs: int64(eta), Result: ev.Result}, false)
	}
	sweep.Observe = func(p virtuoso.Point) virtuoso.Observer {
		idx := p.Index
		return virtuoso.ObserverFunc(func(snap virtuoso.Snapshot) {
			sn := snap
			j.publish(serveEvent{Event: "snapshot", Point: &idx, Snapshot: &sn}, true)
		})
	}

	go func() {
		defer cancel()
		// Replay checkpoint-restored points into the stream first: a
		// client attaching to a revived job sees every completed point,
		// not just the ones this process simulates.
		if restored, err := readCheckpointIfAny(sweep.Checkpoint); err == nil {
			j.mu.Lock()
			j.resumed = len(restored)
			j.mu.Unlock()
			for i := range restored {
				r := restored[i]
				j.publish(serveEvent{Event: "result", Done: i + 1, Total: total, Result: &r}, false)
			}
		}
		_, err := sweep.Run(jobCtx)
		j.finish(err)
	}()
	return j
}

// doneEta folds the sweep's own Done counter (which includes
// checkpoint-restored points) with the job's ETA estimate: host time
// per freshly simulated point times the points still pending (restored
// and cache-answered points are free and excluded from the rate).
func (j *sweepJob) doneEta(done int) (int, time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fresh := done - j.resumed - j.cached
	var eta time.Duration
	if fresh > 0 {
		per := time.Since(j.started) / time.Duration(fresh)
		eta = per * time.Duration(j.total-done)
	}
	return done, eta
}

// readCheckpointIfAny loads a checkpoint that exists; a missing file is
// a fresh job, not an error.
func readCheckpointIfAny(path string) ([]virtuoso.Result, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	_, results, err := virtuoso.ReadCheckpoint(path)
	return results, err
}

// ServeHTTP routes: POST / or /sweeps submits, GET /sweeps lists, GET
// /sweeps/<hash> attaches.
func (s *sweepServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost:
		s.handleSubmit(w, r)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/sweeps/"):
		s.handleAttach(w, r, strings.TrimPrefix(r.URL.Path, "/sweeps/"))
	case r.Method == http.MethodGet && (r.URL.Path == "/sweeps" || r.URL.Path == "/"):
		s.handleList(w)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

func (s *sweepServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := virtuoso.ParseSweepSpec(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j, err := s.submit(spec, raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.stream(w, r, j)
}

func (s *sweepServer) handleAttach(w http.ResponseWriter, r *http.Request, hash string) {
	j, err := s.lookup(hash)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	s.stream(w, r, j)
}

func (s *sweepServer) handleList(w http.ResponseWriter) {
	type jobInfo struct {
		SpecHash string `json:"spec_hash"`
		Points   int    `json:"points"`
		Done     int    `json:"done"`
		Running  bool   `json:"running"`
		EtaNs    int64  `json:"eta_ns,omitempty"`
		Err      string `json:"error,omitempty"`
	}
	s.mu.Lock()
	jobs := make([]*sweepJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	infos := make([]jobInfo, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		done := 0
		for _, ev := range j.log {
			if ev.Event == "result" {
				done++
			}
		}
		info := jobInfo{SpecHash: j.hash, Points: j.total, Done: done, Running: !j.done}
		if j.err != nil {
			info.Err = j.err.Error()
		}
		if !j.done && done > j.resumed {
			per := time.Since(j.started) / time.Duration(done-j.resumed)
			info.EtaNs = int64(per * time.Duration(j.total-done))
		}
		j.mu.Unlock()
		infos = append(infos, info)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(infos)
}

// stream writes the NDJSON event sequence: hello, the replay log, then
// live events until the job finishes or the client goes away. The job
// keeps running when the client disconnects.
func (s *sweepServer) stream(w http.ResponseWriter, r *http.Request, j *sweepJob) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(ev serveEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	replay, live, finished := j.attach()
	if live != nil {
		defer j.detach(live)
	}
	done := 0
	for _, ev := range replay {
		if ev.Event == "result" {
			done++
		}
	}
	if !emit(serveEvent{Event: "hello", SpecHash: j.hash, Points: j.total, Done: done, Total: j.total}) {
		return
	}
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	if finished {
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if !emit(ev) {
				return
			}
			if ev.Event == "done" || ev.Event == "error" {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(r.Body, 1<<20+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > 1<<20 {
		return nil, fmt.Errorf("spec too large")
	}
	return raw, nil
}

func sweepServeCmd(args []string) {
	fs := newServeFlags()
	fs.fs.Parse(args)
	if *fs.stdin {
		serveStdin(fs)
		return
	}
	srv, err := newSweepServer(*fs.dir, *fs.parallel)
	check(err)
	srv.cache = *fs.cache
	httpSrv := &http.Server{Addr: *fs.addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		srv.cancel() // stop in-flight sweeps; checkpoints keep their completed points
		httpSrv.Close()
	}()
	fmt.Fprintf(os.Stderr, "virtuoso sweep serve: listening on %s, state in %s\n", *fs.addr, *fs.dir)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		check(err)
	}
}

type serveFlags struct {
	fs       *flag.FlagSet
	addr     *string
	dir      *string
	cache    *string
	parallel *int
	stdin    *bool
}

func newServeFlags() serveFlags {
	fs := flag.NewFlagSet("sweep serve", flag.ExitOnError)
	return serveFlags{
		fs:       fs,
		addr:     fs.String("addr", ":8089", "HTTP listen address"),
		dir:      fs.String("dir", "sweep-jobs", "state directory for persisted specs and checkpoints"),
		cache:    fs.String("cache", "", "content-addressed point-result cache directory shared by all jobs (warm points skip simulation)"),
		parallel: fs.Int("parallel", 0, "max concurrent simulations per job (0 = GOMAXPROCS)"),
		stdin:    fs.Bool("stdin", false, "read one spec from stdin and stream its events to stdout instead of serving HTTP"),
	}
}

// serveStdin is the transport-free variant: one spec in on stdin, its
// event stream out on stdout. Checkpointing still applies, so piping
// the same spec twice resumes rather than recomputes.
func serveStdin(fsv serveFlags) {
	srv, err := newSweepServer(*fsv.dir, *fsv.parallel)
	check(err)
	srv.cache = *fsv.cache
	spec, err := loadSpec("-")
	check(err)
	raw, err := json.Marshal(spec)
	check(err)
	j, err := srv.submit(spec, raw)
	check(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		srv.cancel()
	}()

	enc := json.NewEncoder(os.Stdout)
	replay, live, finished := j.attach()
	done := 0
	for _, ev := range replay {
		if ev.Event == "result" {
			done++
		}
	}
	enc.Encode(serveEvent{Event: "hello", SpecHash: j.hash, Points: j.total, Done: done, Total: j.total})
	for _, ev := range replay {
		enc.Encode(ev)
	}
	if finished {
		return
	}
	for ev := range live {
		enc.Encode(ev)
		if ev.Event == "done" || ev.Event == "error" {
			return
		}
	}
}
