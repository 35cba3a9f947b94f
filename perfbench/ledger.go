package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/phase"
)

// runTraced is the traced run. Each repetition runs, untraced and then
// split into spans, both halves of the analysis over the workload's input:
// the batch op over its dump directory and the durable live pass over its
// samples, plus side feeds of the runner's inner layers. The live pass
// uses the live workload's settings on every input, so each ledger
// measures every layer; on a batch workload the live half is off the op's
// path. Every split result must equal its untraced counterpart bit for
// bit, and both must equal phase.Detect over the same samples.
func runTraced(cfg config, out io.Writer) (*result, error) {
	cfg.setups = 1
	in, _, err := setupInput(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	opts := phaseOptions(cfg.parallelism)
	killAt := killIndex(cfg.seed, len(in.samples))
	profiles, err := interval.DifferenceP(in.samples, cfg.parallelism)
	if err != nil {
		return nil, err
	}
	if err := describeInput(out, in, profiles, opts.Features); err != nil {
		return nil, err
	}
	want, err := phase.Detect(profiles, opts)
	if err != nil {
		return nil, err
	}
	wantReport, err := renderReport(want, profiles)
	if err != nil {
		return nil, err
	}

	t := newTracer()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var (
		opU, opT []float64 // the workload's own op, untraced and traced
		bls      []*batchLedger
		lls      []*liveLedger
		backlog  []float64
	)
	stateU := filepath.Join(cfg.workDir, "state-untraced")
	stateT := filepath.Join(cfg.workDir, "state-traced")
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		res.Attempted++
		mismatch := func(format string, args ...any) {
			fmt.Fprintf(out, "rep %d: "+format+"\n", append([]any{rep}, args...)...)
			res.Failed++
		}
		// Batch ops are short, so several untraced/traced pairs per rep
		// steady the overhead estimate; each op starts from a collected
		// heap so neither pays for the other's garbage.
		batchOK := true
		for i := 0; i < batchPairs && batchOK; i++ {
			var (
				b  *batchPass
				bl *batchLedger
			)
			// Alternate which op of the pair runs first.
			for j := 0; j < 2; j++ {
				runtime.GC()
				if (i+j)%2 == 0 {
					b, err = runBatch(in.dir, opts)
				} else {
					bl, err = tracedBatch(t, in.dir, opts)
				}
				if err != nil {
					return nil, err
				}
			}
			switch {
			case !bytes.Equal(b.report, wantReport):
				mismatch("batch report differs from phase.Detect over the samples")
				batchOK = false
			case !bytes.Equal(bl.report, b.report):
				mismatch("split batch report differs from the untraced one")
				batchOK = false
			case !sameDetection(bl.det, want):
				mismatch("split detection differs from phase.Detect")
				batchOK = false
			}
			bls = append(bls, bl)
			if !cfg.workload.live {
				opU = append(opU, b.elapsed.Seconds())
				opT = append(opT, bl.op.Seconds())
			}
		}
		if !batchOK {
			continue
		}

		u, err := runLive(in.samples, stateU, opts, killAt)
		if err != nil {
			return nil, err
		}
		ll, err := tracedLive(t, in.samples, stateT, opts, killAt)
		if err != nil {
			return nil, err
		}
		filesU, err := stateFiles(stateU)
		if err != nil {
			return nil, err
		}
		switch {
		case !bytes.Equal(u.report, wantReport):
			mismatch("live report after kill and resume differs from phase.Detect's")
			continue
		case !bytes.Equal(ll.report, u.report):
			mismatch("split live report differs from the untraced one")
			continue
		case !reflect.DeepEqual(ll.stateFiles, filesU):
			mismatch("split live state directory differs from the untraced one")
			continue
		}
		if err := sideFeeds(t, ll, in.samples, filepath.Join(cfg.workDir, "state-side"), opts); err != nil {
			return nil, err
		}
		_, busy, bk := labelLatencies(u.jobs)
		backlog = append(backlog, float64(bk))
		if cfg.workload.live {
			opU = append(opU, busy.Seconds())
			opT = append(opT, ll.busy.Seconds())
		}
		lls = append(lls, ll)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "reps: %d live passes and %d batch op pairs, %d spans\n", len(lls), len(bls), len(t.spans))
	if err := t.write(cfg.traceOut, hostBlock(cfg.parallelism)); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace: %s\n", cfg.traceOut)
	if len(lls) == 0 {
		printMetrics(out, res)
		return res, nil
	}

	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	batchMed := func(f func(*batchLedger) float64) float64 {
		xs := make([]float64, len(bls))
		for i, l := range bls {
			xs[i] = f(l)
		}
		return median(xs)
	}
	liveMed := func(f func(*liveLedger) float64) float64 {
		xs := make([]float64, len(lls))
		for i, l := range lls {
			xs[i] = f(l)
		}
		return median(xs)
	}
	b0, l0 := bls[0], lls[0]
	put("incprof.load_ms", batchMed(func(l *batchLedger) float64 { return ms(l.load) }), "ms")
	put("incprof.load_allocs", batchMed(func(l *batchLedger) float64 { return float64(l.loadAllocs) }), "count")
	put("interval.difference_ms", batchMed(func(l *batchLedger) float64 { return ms(l.difference) }), "ms")
	put("interval.features_ms", batchMed(func(l *batchLedger) float64 { return ms(l.features) }), "ms")
	put("interval.rows", float64(b0.rows), "count")
	put("interval.dims", float64(b0.dims), "count")
	put("interval.nnz", float64(b0.nnz), "count")
	put("cluster.sweep_ms", batchMed(func(l *batchLedger) float64 { return ms(l.sweep) }), "ms")
	put("cluster.lloyd_iters", float64(b0.lloydIters), "count")
	put("cluster.select_us", batchMed(func(l *batchLedger) float64 { return us(l.sel) }), "us")
	put("phase.sites_ms", batchMed(func(l *batchLedger) float64 { return ms(l.sites) }), "ms")
	put("report.render_ms", batchMed(func(l *batchLedger) float64 { return ms(l.render) }), "ms")

	put("checkpoint.emit_us_p50", liveMed(func(l *liveLedger) float64 { return quantile(l.emit, 0.50) }), "us")
	put("checkpoint.emit_us_p99", liveMed(func(l *liveLedger) float64 { return quantile(l.emit, 0.99) }), "us")
	put("checkpoint.wal_append_us_p50", liveMed(func(l *liveLedger) float64 { return quantile(l.walAppend, 0.50) }), "us")
	put("stream.emit_us_p50", liveMed(func(l *liveLedger) float64 { return quantile(l.engineEmits, 0.50) }), "us")
	put("stream.refreshes", float64(len(l0.refresh)), "count")
	put("stream.refresh_ms_first", liveMed(func(l *liveLedger) float64 { return first(l.refresh) }), "ms")
	put("stream.refresh_ms_last", liveMed(func(l *liveLedger) float64 { return last(l.refresh) }), "ms")
	put("stream.refresh_ms_sum", liveMed(func(l *liveLedger) float64 { return sum(l.refresh) }), "ms")
	put("checkpoint.saves", float64(len(l0.save)), "count")
	put("checkpoint.save_ms_last", liveMed(func(l *liveLedger) float64 { return last(l.save) }), "ms")
	put("checkpoint.save_ms_sum", liveMed(func(l *liveLedger) float64 { return sum(l.save) }), "ms")
	put("checkpoint.snapshot_bytes_last", float64(l0.snapBytesLast), "bytes")
	put("checkpoint.recover_ms", liveMed(func(l *liveLedger) float64 { return ms(l.recover) }), "ms")
	put("checkpoint.replayed", float64(l0.replayed), "count")
	put("stream.finish_ms", liveMed(func(l *liveLedger) float64 { return ms(l.finish) }), "ms")
	put("feeder.backlog_max", median(backlog), "count")
	put("trace.overhead_pct", 100*(median(opT)/median(opU)-1), "%")
	printMetrics(out, res)
	return res, nil
}

// sameDetection reports whether two detections agree bit for bit on
// everything the report and the instrumentation step consume.
func sameDetection(a, b *phase.Detection) bool {
	if a.K != b.K || len(a.WCSS) != len(b.WCSS) || !reflect.DeepEqual(a.Phases, b.Phases) {
		return false
	}
	for i := range a.WCSS {
		if math.Float64bits(a.WCSS[i]) != math.Float64bits(b.WCSS[i]) {
			return false
		}
	}
	return reflect.DeepEqual(a.Matrix, b.Matrix)
}

func first(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[0]
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// batchPairs is how many untraced/traced batch op pairs one rep runs.
const batchPairs = 4
