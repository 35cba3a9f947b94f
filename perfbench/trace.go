package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// span is one timed call into a layer, recorded from this package around a
// public function. Spans of one op share Op.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for an op's root span
	Op     int              `json:"op"`
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"` // since the tracer started
	End    time.Duration    `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp starts a new op and returns its root span.
func (t *tracer) newOp(name string) int {
	t.op++
	return t.begin(name, 0)
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	return s.End - s.Start
}

func (t *tracer) count(id int, key string, v int64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] = v
}

func (t *tracer) write(path string, h host) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// batchLedger is the per-layer record of one traced batch op.
type batchLedger struct {
	op, load, difference, features, sweep, sel, sites, render time.Duration
	loadAllocs                                                uint64
	dims, nnz, rows, lloydIters                               int
	report                                                    []byte
	det                                                       *phase.Detection
}

// tracedBatch is runBatch split into its public calls: load, difference,
// then phase.Detect as FeaturesCSR, SweepCSR, SelectElbow, BuildPhases and
// SelectPhaseSites, then the report.
func tracedBatch(t *tracer, dir string, opts phase.Options) (*batchLedger, error) {
	opts = opts.WithDefaults()
	l := &batchLedger{}
	root := t.newOp("batch.op")

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := t.begin("incprof.load", root)
	f, err := profile.DetectDir(dir)
	if err != nil {
		return nil, err
	}
	st, err := incprof.NewFormatDirStore(dir, f)
	if err != nil {
		return nil, err
	}
	snaps, err := st.Snapshots()
	if err != nil {
		return nil, err
	}
	l.load = t.end(sp)
	runtime.ReadMemStats(&m1)
	l.loadAllocs = m1.Mallocs - m0.Mallocs
	t.count(sp, "allocs", int64(l.loadAllocs))
	t.count(sp, "dumps", int64(len(snaps)))

	sp = t.begin("interval.difference", root)
	profiles, err := interval.DifferenceP(snaps, opts.Cluster.Parallelism)
	if err != nil {
		return nil, err
	}
	l.difference = t.end(sp)

	sp = t.begin("interval.features", root)
	m := interval.FeaturesCSR(profiles, opts.Features)
	l.features = t.end(sp)
	l.dims, l.nnz, l.rows = m.Dims(), m.Sparse.NNZ(), m.NumRows()
	t.count(sp, "dims", int64(l.dims))
	t.count(sp, "nnz", int64(l.nnz))

	sp = t.begin("cluster.sweep", root)
	results, err := cluster.SweepCSR(m.Sparse, opts.KMax, opts.Cluster)
	if err != nil {
		return nil, err
	}
	l.sweep = t.end(sp)
	for _, r := range results {
		l.lloydIters += r.Iterations
	}
	t.count(sp, "lloyd_iters", int64(l.lloydIters))

	sp = t.begin("cluster.select", root)
	best := cluster.SelectElbow(results)
	l.sel = t.end(sp)

	sp = t.begin("phase.sites", root)
	det := &phase.Detection{K: best.K, Matrix: m, Profiles: profiles, Options: opts}
	det.WCSS = make([]float64, len(results))
	for i, r := range results {
		det.WCSS[i] = r.WCSS
	}
	det.Phases = phase.BuildPhases(profiles, best.Assign, best.Centroids, best.K)
	for i := range det.Phases {
		phase.SelectPhaseSites(&det.Phases[i], profiles, m, opts.CoverageThreshold, len(profiles))
	}
	l.sites = t.end(sp)

	sp = t.begin("report.render", root)
	l.report, err = renderReport(det, profiles)
	if err != nil {
		return nil, err
	}
	l.render = t.end(sp)
	l.op = t.end(root)
	l.det = det
	return l, nil
}

// liveLedger is the per-layer record of one traced live pass.
type liveLedger struct {
	busy                   time.Duration // all Emits, Saves, the resume and Finish
	emit                   []float64     // µs, Runner.Emit on dumps with no refresh
	refresh                []float64     // ms, Runner.Emit calls during which a refresh fired
	save                   []float64     // ms, Runner.Save
	snapBytesLast          int64
	recover, finish        time.Duration
	replayed               int
	refreshFree            []bool // per dump index
	report                 []byte
	stateFiles             map[string][]byte
	walAppend, engineEmits []float64 // µs, side feeds over refresh-free dumps
}

// tracedLive is runLive split into its public calls: the runner's own
// snapshot cadence (Every: 25) becomes Every: 0 plus an explicit
// Runner.Save after every 25th accepted dump, and each Emit is classified
// by whether a refresh fired inside it.
func tracedLive(t *tracer, samples []*profile.Sample, stateDir string, opts phase.Options, killAt int) (*liveLedger, error) {
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	l := &liveLedger{refreshFree: make([]bool, len(samples))}
	refreshed := false
	ropts := checkpoint.RunnerOptions{
		Config: checkpointConfig(opts),
		Engine: stream.Options{
			Phase:        opts,
			RefreshEvery: liveRefreshEvery,
			// A label callback makes the engine run its live tracker, as
			// in the untraced pass.
			OnLabel: (&labelClock{}).onLabel,
			OnRefresh: func(r stream.Refresh) {
				if !r.Final {
					refreshed = true
				}
			},
		},
	}
	root := t.newOp("live.pass")
	sp := t.begin("checkpoint.start", root)
	mgr, err := checkpoint.Open(stateDir, checkpoint.ManagerOptions{})
	if err != nil {
		return nil, err
	}
	// Releases the WAL on error paths; Finish has closed it on success.
	defer func() {
		if mgr != nil {
			mgr.Close()
		}
	}()
	runner, _, err := checkpoint.Start(mgr, ropts)
	if err != nil {
		return nil, err
	}
	t.end(sp)

	feed := func(i int) error {
		refreshed = false
		sp := t.begin("checkpoint.emit", root)
		if err := runner.Emit(samples[i]); err != nil {
			return fmt.Errorf("emit %d: %w", i, err)
		}
		d := t.end(sp)
		l.busy += d
		if refreshed {
			t.spans[sp-1].Name = "stream.refresh"
			l.refresh = append(l.refresh, ms(d))
		} else {
			l.refreshFree[i] = true
			l.emit = append(l.emit, us(d))
		}
		if runner.Accepted()%liveSnapEvery != 0 {
			return nil
		}
		sp = t.begin("checkpoint.save", root)
		if err := runner.Save(); err != nil {
			return err
		}
		d = t.end(sp)
		l.busy += d
		l.save = append(l.save, ms(d))
		return nil
	}
	for i := 0; i < killAt; i++ {
		if err := feed(i); err != nil {
			return nil, err
		}
	}
	if err := mgr.Close(); err != nil {
		return nil, err
	}

	var recovers []float64
	if mgr, runner, recovers, err = resume(stateDir, ropts, t, root); err != nil {
		return nil, err
	}
	l.recover = time.Duration(median(recovers))
	l.busy += l.recover
	l.replayed = runner.Replayed()

	for i := killAt; i < len(samples); i++ {
		if err := feed(i); err != nil {
			return nil, err
		}
	}
	sp = t.begin("stream.finish", root)
	res, err := runner.Finish()
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	l.finish = t.end(sp)
	l.busy += l.finish
	t.end(root)
	if l.report, err = renderReport(res.Detection, res.Profiles); err != nil {
		return nil, err
	}
	if l.stateFiles, err = stateFiles(stateDir); err != nil {
		return nil, err
	}
	l.snapBytesLast = newestSnapBytes(l.stateFiles)
	return l, nil
}

// sideFeeds times the layers under the runner on their own, over the same
// dumps: checkpoint.Manager.Append into a side state directory, and
// stream.Engine.Emit with no runner.
func sideFeeds(t *tracer, l *liveLedger, samples []*profile.Sample, sideDir string, opts phase.Options) error {
	if err := os.RemoveAll(sideDir); err != nil {
		return err
	}
	mgr, err := checkpoint.Open(sideDir, checkpoint.ManagerOptions{})
	if err != nil {
		return err
	}
	defer mgr.Close() // error paths; closing again after Close is a no-op
	root := t.newOp("side.wal")
	for i, s := range samples {
		sp := t.begin("checkpoint.wal_append", root)
		if err := mgr.Append(s); err != nil {
			return err
		}
		if d := t.end(sp); l.refreshFree[i] {
			l.walAppend = append(l.walAppend, us(d))
		}
	}
	t.end(root)
	if err := mgr.Close(); err != nil {
		return err
	}

	refreshed := false
	eng := stream.New(stream.Options{
		Phase:        opts,
		RefreshEvery: liveRefreshEvery,
		OnLabel:      (&labelClock{}).onLabel,
		OnRefresh: func(r stream.Refresh) {
			if !r.Final {
				refreshed = true
			}
		},
	})
	root = t.newOp("side.engine")
	for _, s := range samples {
		refreshed = false
		sp := t.begin("stream.emit", root)
		if err := eng.Emit(s); err != nil {
			return err
		}
		if d := t.end(sp); !refreshed {
			l.engineEmits = append(l.engineEmits, us(d))
		}
	}
	t.end(root)
	_, err = eng.Finish()
	return err
}

// stateFiles reads every file of a state directory by name.
func stateFiles(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = data
	}
	return out, nil
}

// newestSnapBytes is the size of the highest-generation .snap file.
func newestSnapBytes(files map[string][]byte) int64 {
	newest := ""
	for name := range files {
		if filepath.Ext(name) == ".snap" && name > newest {
			newest = name
		}
	}
	return int64(len(files[newest]))
}
