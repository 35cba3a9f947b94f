package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/stream"
)

// batchPass is one untraced batch op: dump directory to rendered report,
// as cmd/phasedetect -dir does.
type batchPass struct {
	elapsed   time.Duration // dump directory to rendered report
	load      time.Duration // format detection and DirStore.Snapshots
	report    []byte
	allocated uint64 // bytes allocated by the op
	heap      int64  // live heap the op added, result still referenced
}

// runBatch loads the dump directory, differences the dumps, detects phases
// and renders the report. The heap figure is the post-GC live heap after
// the op less the post-GC live heap before it, so what the caller holds
// (its samples, its pooled latencies) is not counted.
func runBatch(dir string, opts phase.Options) (*batchPass, error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
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
	load := time.Since(t0)
	profiles, err := interval.DifferenceP(snaps, opts.Cluster.Parallelism)
	if err != nil {
		return nil, err
	}
	det, err := phase.Detect(profiles, opts)
	if err != nil {
		return nil, err
	}
	rep, err := renderReport(det, profiles)
	if err != nil {
		return nil, err
	}
	p := &batchPass{elapsed: time.Since(t0), load: load, report: rep}
	runtime.ReadMemStats(&ms1)
	p.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.heap = int64(ms1.HeapAlloc) - int64(ms0.HeapAlloc)
	runtime.KeepAlive(det)
	return p, nil
}

// replayPass is the batch-equals-live check: the same samples replayed
// through a fresh stream engine (no refresh, no checkpoint) with live
// labelling on, finished into the terminal report.
type replayPass struct {
	jobs   []job
	finish time.Duration
	report []byte
}

func runReplay(samples []*profile.Sample, opts phase.Options) (*replayPass, error) {
	clock := &labelClock{}
	eng := stream.New(stream.Options{Phase: opts, OnLabel: clock.onLabel})
	p := &replayPass{jobs: make([]job, 0, len(samples)+1)}
	for i, s := range samples {
		j, err := clock.emitTimed(eng.Emit, s, dueAt(i))
		if err != nil {
			return nil, fmt.Errorf("replay emit %d: %w", i, err)
		}
		p.jobs = append(p.jobs, j)
	}
	t0 := time.Now()
	res, err := eng.Finish()
	if err != nil {
		return nil, fmt.Errorf("replay finish: %w", err)
	}
	p.finish = time.Since(t0)
	p.jobs = append(p.jobs, job{due: dueAt(len(samples)), service: p.finish, label: -1})
	p.report, err = renderReport(res.Detection, res.Profiles)
	return p, err
}
