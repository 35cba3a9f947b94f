package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// testScale keeps the application workloads small enough for a unit test.
const testScale = 0.1

// dumpSet generates a workload's input and returns its dump files by name,
// written in the workload's format (gmon for the in-memory live input).
func dumpSet(t *testing.T, w workload, seed uint64) (map[string][]byte, string) {
	t.Helper()
	samples, label, err := w.gen(testScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeDumps(orDefault(w.format, "gmon"), dir, samples); err != nil {
		t.Fatal(err)
	}
	files, err := stateFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(samples) || len(files) == 0 {
		t.Fatalf("%s: %d files for %d samples", w.name, len(files), len(samples))
	}
	return files, label
}

func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			return false
		}
	}
	return true
}

func TestSameSeedGivesByteIdenticalDumps(t *testing.T) {
	for _, w := range workloads {
		a, _ := dumpSet(t, w, 7)
		b, _ := dumpSet(t, w, 7)
		if !sameFiles(a, b) {
			t.Errorf("%s: seed 7 gave two different dump sets", w.name)
		}
	}
}

// TestDifferentSeedGivesDifferentInput checks what the seed changes: the
// synthetic stream's dumps, the MiniFE rank, and the LAMMPS lattice seed
// and kill index. The simulated applications charge virtual time from a
// fixed cost model, so MiniFE's ranks and LAMMPS's lattices produce the
// same dumps; only the synthetic stream's bytes depend on the seed.
func TestDifferentSeedGivesDifferentInput(t *testing.T) {
	if miniFERank(1, 16) == miniFERank(2, 16) {
		t.Errorf("seeds 1 and 2 pick the same MiniFE rank")
	}
	if killIndex(1, 3124) == killIndex(2, 3124) {
		t.Errorf("seeds 1 and 2 kill the live pass at the same dump")
	}
	for _, w := range workloads {
		a, la := dumpSet(t, w, 1)
		b, lb := dumpSet(t, w, 2)
		if la == lb {
			t.Errorf("%s: seeds 1 and 2 describe the same input %q", w.name, la)
		}
		if w.format == "pprof" && sameFiles(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave identical dumps", w.name)
		}
	}
}

func testConfig(t *testing.T, w workload, trace bool) config {
	return config{
		workload:    w,
		seed:        3,
		seconds:     1e-3, // one op (and one warm-up) is enough here
		trace:       trace,
		scale:       testScale,
		parallelism: runtime.GOMAXPROCS(0),
		setups:      1,
		workDir:     t.TempDir(),
		traceOut:    filepath.Join(t.TempDir(), "trace.json"),
	}
}

// TestUntracedOpsPassTheirOutputCheck runs every workload untraced: each
// batch report must equal its stream replay's, and the live report after
// kill and resume must equal phase.Detect's.
func TestUntracedOpsPassTheirOutputCheck(t *testing.T) {
	for _, w := range workloads {
		res, err := run(testConfig(t, w, false), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		for _, name := range []string{"setup_s", "report_ms", "label_p50_ms", "label_p99_ms", "busy_s", "resume_ms", "alloc_mb", "heap_mb"} {
			if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value", w.name, name, m)
			}
		}
	}
}

// TestSplitCallsReproduceUntracedResults is the decomposition check: the
// traced run's split call sequences must reproduce phase.Detect and the
// checkpoint.Runner bit for bit, including the report and the state
// directory.
func TestSplitCallsReproduceUntracedResults(t *testing.T) {
	for _, w := range workloads {
		cfg := testConfig(t, w, true)
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: split calls disagree with the untraced ones (failed %d of %d)", w.name, res.Failed, res.Attempted)
		}
		if _, err := os.Stat(cfg.traceOut); err != nil {
			t.Errorf("%s: no trace written: %v", w.name, err)
		}
		if res.Metrics["checkpoint.saves"].Value == 0 {
			t.Errorf("%s: the traced live pass took no snapshot", w.name)
		}
	}
}

func TestOpenLoopCountsStallWaitForLaterDumps(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	svc := []time.Duration{1 * ms, 25 * ms, 1 * ms, 1 * ms}
	s := openLoop(due, svc)
	wantStart := []time.Duration{0, 10 * ms, 35 * ms, 36 * ms}
	for i := range due {
		if s.start[i] != wantStart[i] {
			t.Errorf("job %d starts at %v, want %v", i, s.start[i], wantStart[i])
		}
	}
	if s.backlogMax != 2 {
		t.Errorf("backlog max %d, want 2", s.backlogMax)
	}
}

func TestKillIndexIsInSecondHalfOffSnapshotBoundary(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		n := 3124
		k := killIndex(seed, n)
		if k < n/2 || k >= n || k%liveSnapEvery == 0 {
			t.Fatalf("seed %d: kill index %d of %d", seed, k, n)
		}
	}
}
