package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// Live-mode settings: cmd/phasedetect -follow -checkpoint-dir with its
// snapshot cadence and fsync on, a refresh every 250 intervals, and one
// engine absorbing ten ranks' 100 ms dumps.
const (
	liveRefreshEvery = 250
	liveSnapEvery    = 25
	liveRate         = 100.0 // dumps per second
	resumeTries      = 9     // recoveries per pass; resume_ms pools them
	extraFinishes    = 3     // recover-and-Finish repeats per pass for report_ms
)

// job is one unit of work on the live feeder's single server: a dump's
// Emit, the resume, or the final Finish.
type job struct {
	due     time.Duration // when the job was due, from the start of the run
	service time.Duration // closed-loop service time
	label   time.Duration // offset from job start to its live label; < 0 if none
}

// dueAt is the open-loop due time of dump i at liveRate.
func dueAt(i int) time.Duration {
	return time.Duration(float64(i) / liveRate * float64(time.Second))
}

// labelLatencies places the jobs on the open-loop schedule and returns the
// due-to-label latency of every labelled job in ms, the summed service
// time, and the largest backlog of waiting jobs.
func labelLatencies(jobs []job) (lat []float64, busy time.Duration, backlog int) {
	due := make([]time.Duration, len(jobs))
	svc := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		due[i], svc[i] = j.due, j.service
		busy += j.service
	}
	s := openLoop(due, svc)
	for i, j := range jobs {
		if j.label >= 0 {
			lat = append(lat, ms(s.start[i]+j.label-j.due))
		}
	}
	return lat, busy, s.backlogMax
}

// labelClock records when the engine's OnLabel callback fired.
type labelClock struct {
	muted bool // set while recovery replays dumps already labelled
	fired bool
	at    time.Time
}

func (c *labelClock) onLabel(online.Event) {
	if c.muted {
		return
	}
	c.fired, c.at = true, time.Now()
}

// emitTimed runs one Emit as a job and reports its service time and label
// offset.
func (c *labelClock) emitTimed(emit func(*profile.Sample) error, s *profile.Sample, due time.Duration) (job, error) {
	c.fired = false
	t0 := time.Now()
	err := emit(s)
	j := job{due: due, service: time.Since(t0), label: -1}
	if c.fired {
		j.label = c.at.Sub(t0)
	}
	return j, err
}

// checkpointConfig fingerprints the analysis for the checkpoint layer as
// cmd/phasedetect -follow does with its default flags.
func checkpointConfig(opts phase.Options) checkpoint.Config {
	return checkpoint.Config{
		Seed:              opts.Cluster.Seed,
		KMax:              opts.KMax,
		CoverageThreshold: opts.CoverageThreshold,
		Selection:         "elbow",
		Algorithm:         "kmeans",
		FeatureKind:       opts.Features.Kind.String(),
		ExcludeMPI:        opts.Features.Exclude != nil,
		GapPolicy:         "split",
		RefreshEvery:      liveRefreshEvery,
	}
}

// killIndex is the seeded dump index at which the live pass abandons its
// runner: just past the first snapshot of the second half, never on a
// snapshot boundary, so recovery loads that snapshot and replays 1 to
// liveSnapEvery-1 WAL records. Recovery cost grows with the snapshot, so
// fixing the snapshot keeps resume_ms comparable across seeds.
func killIndex(seed uint64, n int) int {
	snap := (n/2 + liveSnapEvery - 1) / liveSnapEvery * liveSnapEvery
	return snap + 1 + int(seed%(liveSnapEvery-1))
}

// resume recovers the crashed state directory resumeTries times and
// returns the last attempt's manager and runner with every attempt's
// recovery time in ns. Recovery only reads the directory, so every attempt sees the same
// state; all but the last are abandoned like the crashed run. With a
// tracer, each attempt is a checkpoint.recover span under parent.
func resume(stateDir string, ropts checkpoint.RunnerOptions, t *tracer, parent int) (*checkpoint.Manager, *checkpoint.Runner, []float64, error) {
	var (
		mgr    *checkpoint.Manager
		runner *checkpoint.Runner
		err    error
	)
	times := make([]float64, resumeTries)
	for i := range times {
		if i > 0 {
			if err := mgr.Close(); err != nil {
				return nil, nil, nil, err
			}
		}
		sp := 0
		if t != nil {
			sp = t.begin("checkpoint.recover", parent)
		}
		t0 := time.Now()
		if mgr, err = checkpoint.Open(stateDir, checkpoint.ManagerOptions{}); err != nil {
			return nil, nil, nil, err
		}
		if runner, _, err = checkpoint.Start(mgr, ropts); err != nil {
			mgr.Close()
			return nil, nil, nil, fmt.Errorf("resume: %w", err)
		}
		times[i] = float64(time.Since(t0))
		if t != nil {
			t.end(sp)
			t.count(sp, "replayed", int64(runner.Replayed()))
		}
	}
	return mgr, runner, times, nil
}

// livePass is one untraced pass of the live workload.
type livePass struct {
	jobs      []job
	resume    time.Duration   // checkpoint.Open + Start on the crashed directory: median
	resumes   []float64       // every recovery attempt's time, ns
	finish    time.Duration   // Runner.Finish
	render    time.Duration   // report rendering after Finish
	reports   []time.Duration // Finish + render: the pass's own, then each extra one
	report    []byte
	allocated uint64 // bytes allocated during the pass
	heap      int64  // live heap the pass added by the time Finish starts
}

// runLive feeds every sample into a durable runner, abandons it at killAt
// as a kill would, resumes on the same directory, finishes and renders the
// terminal report. The heap figure is the post-GC live heap just before
// Finish less the post-GC live heap at the start of the pass, taken once
// the pass's own job log is allocated, so what the caller holds is not
// counted.
func runLive(samples []*profile.Sample, stateDir string, opts phase.Options, killAt int) (*livePass, error) {
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	clock := &labelClock{}
	ropts := checkpoint.RunnerOptions{
		Config: checkpointConfig(opts),
		Engine: stream.Options{Phase: opts, RefreshEvery: liveRefreshEvery, OnLabel: clock.onLabel},
		Every:  liveSnapEvery,
	}
	p := &livePass{jobs: make([]job, 0, len(samples)+2)}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)

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
	for i := 0; i < killAt; i++ {
		j, err := clock.emitTimed(runner.Emit, samples[i], dueAt(i))
		if err != nil {
			return nil, fmt.Errorf("emit %d: %w", i, err)
		}
		p.jobs = append(p.jobs, j)
	}
	// The kill: the runner is dropped without Finish; only its open WAL
	// descriptor is released, as process exit would.
	if err := mgr.Close(); err != nil {
		return nil, err
	}

	// The op recovers once; the other resumeTries-1 attempts only repeat
	// the timing, so their share of the recovery's allocation is left out.
	var r0, r1 runtime.MemStats
	runtime.ReadMemStats(&r0)
	clock.muted = true
	mgr, runner, p.resumes, err = resume(stateDir, ropts, nil, 0)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&r1)
	repeated := (r1.TotalAlloc - r0.TotalAlloc) / resumeTries * (resumeTries - 1)
	p.resume = time.Duration(median(p.resumes))
	clock.muted = false
	p.jobs = append(p.jobs, job{due: dueAt(killAt), service: p.resume, label: -1})

	for i := killAt; i < len(samples); i++ {
		j, err := clock.emitTimed(runner.Emit, samples[i], dueAt(i))
		if err != nil {
			return nil, fmt.Errorf("emit %d: %w", i, err)
		}
		p.jobs = append(p.jobs, j)
	}

	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.heap = int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)

	t0 := time.Now()
	res, err := runner.Finish()
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	p.finish = time.Since(t0)
	p.jobs = append(p.jobs, job{due: dueAt(len(samples)), service: p.finish, label: -1})
	t0 = time.Now()
	p.report, err = renderReport(res.Detection, res.Profiles)
	if err != nil {
		return nil, err
	}
	p.render = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	p.allocated = ms1.TotalAlloc - ms0.TotalAlloc - repeated

	// Finish leaves the state directory as it was, so recovering it again
	// gives the same engine. Each extra Finish + render from a collected
	// heap is one more report_ms sample, and must render the same report.
	p.reports = append(p.reports, p.finish+p.render)
	clock.muted = true
	for i := 0; i < extraFinishes; i++ {
		d, err := finishRecovered(stateDir, ropts, p.report)
		if err != nil {
			return nil, fmt.Errorf("extra finish %d: %w", i+1, err)
		}
		p.reports = append(p.reports, d)
	}
	return p, nil
}

// finishRecovered recovers the state directory, then times Finish and the
// report render, checking the report against want.
func finishRecovered(stateDir string, ropts checkpoint.RunnerOptions, want []byte) (time.Duration, error) {
	mgr, err := checkpoint.Open(stateDir, checkpoint.ManagerOptions{})
	if err != nil {
		return 0, err
	}
	runner, _, err := checkpoint.Start(mgr, ropts)
	if err != nil {
		mgr.Close()
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	res, err := runner.Finish()
	if err != nil {
		return 0, err
	}
	rep, err := renderReport(res.Detection, res.Profiles)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if !bytes.Equal(rep, want) {
		return 0, errors.New("report differs from the pass's own")
	}
	return d, nil
}
