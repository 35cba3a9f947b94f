// Command perfbench is the repository's end-to-end benchmark of the phase
// analysis. It generates a seeded dump set, runs one workload through the
// same public calls cmd/phasedetect makes (batch mode, or -follow
// -checkpoint-dir mode with a kill and resume), checks every output against
// a second code path, and prints each metric by name and unit. The last
// line of standard output is one JSON object with the result.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload batch-minife --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run splits each op into its public calls, times every
// layer from this package, asserts the split reproduces the untraced result
// bit for bit, and reports the per-layer ledger instead. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/profile"
)

// workload names one benchmark input and the op run over it.
type workload struct {
	name string
	live bool // live labelling with kill/resume; batch report otherwise
	gen  func(scale float64, seed uint64) ([]*profile.Sample, string, error)
	// format is the dump format the setup writes ("" writes nothing in
	// untraced runs: the live op feeds the samples from memory).
	format string
}

var workloads = []workload{
	{name: "batch-minife", gen: genMiniFE, format: "gmon"},
	{name: "live-lammps", live: true, gen: genLAMMPS},
	{name: "batch-wide-pprof", gen: func(scale float64, seed uint64) ([]*profile.Sample, string, error) {
		s, label := genWide(scale, seed)
		return s, label, nil
	}, format: "pprof"},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupsPerRun is how many times a run sets up its input; setup_s is the
// median.
const setupsPerRun = 3

type config struct {
	workload    workload
	seed        uint64
	seconds     float64
	trace       bool
	scale       float64 // application scale: 1 here, smaller in tests
	parallelism int
	setups      int
	workDir     string // scratch space, removed at exit
	traceOut    string // where the traced run writes its spans
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wname := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed; the program sees only the dumps generated from it")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced, split ops and reports the per-layer ledger")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for generated dumps, state directories and traces")
	flag.Parse()

	w, ok := lookupWorkload(*wname)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (have %s)", *wname, workloadNames()))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	// Analysis parallelism is GOMAXPROCS, which the environment may set;
	// more than the host's CPUs is refused.
	par := runtime.GOMAXPROCS(0)
	if par > runtime.NumCPU() {
		fail(fmt.Errorf("analysis parallelism (GOMAXPROCS) %d exceeds NumCPU %d", par, runtime.NumCPU()))
	}
	cfg := config{
		workload:    w,
		seed:        *seed,
		seconds:     *seconds,
		trace:       *trace == 1,
		scale:       1,
		parallelism: par,
		setups:      setupsPerRun,
		workDir:     filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid())),
		traceOut:    filepath.Join(*work, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed)),
	}
	res, err := run(cfg, os.Stdout)
	if rerr := os.RemoveAll(cfg.workDir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// host is the host block every result records.
type host struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	Parallelism int    `json:"analysis_parallelism"`
}

func hostBlock(parallelism int) host {
	return host{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		Parallelism: parallelism,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setupInput generates the workload's samples cfg.setups times, writing
// them as dumps each time when the workload has a format (or when write is
// forced), and returns the last input with the median set-up time.
func setupInput(cfg config, write bool) (*input, float64, error) {
	var times []float64
	var in *input
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(cfg.workDir, "dumps")
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		samples, label, err := cfg.workload.gen(cfg.scale, cfg.seed)
		if err != nil {
			return nil, 0, err
		}
		in = &input{samples: samples, label: label}
		format := cfg.workload.format
		if format == "" && write {
			format = "gmon"
		}
		if format != "" {
			in.dir, in.format = dir, format
			if err := writeDumps(format, dir, samples); err != nil {
				return nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if len(in.samples) == 0 {
		return nil, 0, errors.New("generated no dumps")
	}
	return in, median(times), nil
}

func writeDumps(format, dir string, samples []*profile.Sample) error {
	if format == "pprof" {
		return writePprof(dir, samples)
	}
	return writeGmon(dir, samples)
}

// describeInput prints the input's size: dumps, bytes on disk (or gmon
// encoded, for an in-memory input), feature dims and nnz.
func describeInput(out io.Writer, in *input, profiles []interval.Profile, opts interval.FeatureOptions) error {
	var size int64
	if in.dir != "" {
		n, err := dirBytes(in.dir)
		if err != nil {
			return err
		}
		size = n
	} else {
		var cw countWriter
		for _, s := range in.samples {
			if err := s.Encode(&cw); err != nil {
				return err
			}
		}
		size = cw.n
	}
	m := interval.FeaturesCSR(profiles, opts)
	fmt.Fprintf(out, "input: %s: %d dumps, %d bytes (%s), %d intervals, %d dims, nnz %d, dense cells %d\n",
		in.label, len(in.samples), size, orDefault(in.format, "gmon-encoded, in memory"),
		len(profiles), m.Dims(), m.Sparse.NNZ(), m.NumRows()*m.Dims())
	return nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// run sets up the input, prints the host block and input size, and runs
// the untraced or traced measurement.
func run(cfg config, out io.Writer) (*result, error) {
	hb, err := json.Marshal(hostBlock(cfg.parallelism))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "host: %s\n", hb)
	fmt.Fprintf(out, "workload: %s seed %d, %.0f s, trace %v\n", cfg.workload.name, cfg.seed, cfg.seconds, cfg.trace)
	if cfg.trace {
		return runTraced(cfg, out)
	}
	in, setup, err := setupInput(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var res *result
	if cfg.workload.live {
		res, err = measureLive(cfg, in, out)
	} else {
		res, err = measureBatch(cfg, in, out)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = metric{setup, "s"}
	printMetrics(out, res)
	return res, nil
}

// printMetrics prints every metric by name and unit, plus error_rate.
func printMetrics(out io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "%-34s %14.6f %s (%d of %d ops)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
}

// measureBatch repeats the batch op for cfg.seconds after one warm-up op,
// checking each report against a stream-engine replay of the same samples.
func measureBatch(cfg config, in *input, out io.Writer) (*result, error) {
	opts := phaseOptions(cfg.parallelism)
	profiles, err := interval.DifferenceP(in.samples, cfg.parallelism)
	if err != nil {
		return nil, err
	}
	if err := describeInput(out, in, profiles, opts.Features); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var report, load, replayBusy, alloc, heap, lat []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for op := 0; op == 0 || time.Now().Before(deadline) || (len(report) < 3 && res.Failed == 0); op++ {
		b, err := runBatch(in.dir, opts)
		var r *replayPass
		if err == nil {
			r, err = runReplay(in.samples, opts)
		}
		res.Attempted++
		switch {
		case err != nil:
			fmt.Fprintf(out, "op %d failed: %v\n", op, err)
			res.Failed++
			continue
		case !bytes.Equal(b.report, r.report):
			fmt.Fprintf(out, "op %d: batch report differs from the stream replay's\n", op)
			res.Failed++
			continue
		}
		if op == 0 {
			continue // warm-up
		}
		report = append(report, ms(b.elapsed))
		load = append(load, ms(b.load))
		alloc = append(alloc, float64(b.allocated)/1e6)
		heap = append(heap, float64(b.heap)/1e6)
		l, busy, _ := labelLatencies(r.jobs)
		lat = append(lat, l...)
		replayBusy = append(replayBusy, busy.Seconds())
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "ops: %d measured, %d label samples\n", len(report), len(lat))
	res.Metrics["report_ms"] = metric{median(report), "ms"}
	res.Metrics["resume_ms"] = metric{median(load), "ms"}
	res.Metrics["busy_s"] = metric{median(replayBusy), "s"}
	res.Metrics["label_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	res.Metrics["label_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	res.Metrics["alloc_mb"] = metric{median(alloc), "MB"}
	res.Metrics["heap_mb"] = metric{median(heap), "MB"}
	return res, nil
}

// measureLive repeats the live pass for cfg.seconds after one warm-up pass,
// checking each terminal report against phase.Detect over the same samples.
func measureLive(cfg config, in *input, out io.Writer) (*result, error) {
	opts := phaseOptions(cfg.parallelism)
	profiles, err := interval.DifferenceP(in.samples, cfg.parallelism)
	if err != nil {
		return nil, err
	}
	if err := describeInput(out, in, profiles, opts.Features); err != nil {
		return nil, err
	}
	want, err := detectReport(profiles, opts)
	if err != nil {
		return nil, err
	}
	killAt := killIndex(cfg.seed, len(in.samples))
	fmt.Fprintf(out, "kill at dump %d of %d\n", killAt, len(in.samples))
	stateDir := filepath.Join(cfg.workDir, "state")

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var report, resume, busyS, alloc, heap, lat []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline) || (len(busyS) < 2 && res.Failed == 0); pass++ {
		p, err := runLive(in.samples, stateDir, opts, killAt)
		res.Attempted++
		switch {
		case err != nil:
			fmt.Fprintf(out, "pass %d failed: %v\n", pass, err)
			res.Failed++
			continue
		case !bytes.Equal(p.report, want):
			fmt.Fprintf(out, "pass %d: live report after kill and resume differs from phase.Detect's\n", pass)
			res.Failed++
			continue
		}
		if pass == 0 {
			continue // warm-up
		}
		l, busy, _ := labelLatencies(p.jobs)
		fmt.Fprintf(out, "pass %d: busy %.3f s, p99 %.1f ms, finish %.1f ms, report ms", pass, busy.Seconds(), quantile(l, 0.99), ms(p.finish))
		for _, d := range p.reports {
			fmt.Fprintf(out, " %.1f", ms(d))
			report = append(report, ms(d))
		}
		fmt.Fprintln(out)
		lat = append(lat, l...)
		busyS = append(busyS, busy.Seconds())
		for _, r := range p.resumes {
			resume = append(resume, r/1e6)
		}
		alloc = append(alloc, float64(p.allocated)/1e6)
		heap = append(heap, float64(p.heap)/1e6)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "passes: %d measured, %d label samples\n", len(busyS), len(lat))
	res.Metrics["report_ms"] = metric{median(report), "ms"}
	res.Metrics["resume_ms"] = metric{median(resume), "ms"}
	res.Metrics["busy_s"] = metric{median(busyS), "s"}
	res.Metrics["label_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	res.Metrics["label_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	res.Metrics["alloc_mb"] = metric{median(alloc), "MB"}
	res.Metrics["heap_mb"] = metric{median(heap), "MB"}
	return res, nil
}
