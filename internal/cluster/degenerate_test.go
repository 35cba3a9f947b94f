package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/xmath"
)

// duplicateRows repeats each distinct row reps[i] times, cycling through the
// distinct rows so duplicates interleave the way a periodic run's intervals
// do.
func duplicateRows(distinct [][]float64, reps []int) [][]float64 {
	var out [][]float64
	left := append([]int(nil), reps...)
	for more := true; more; {
		more = false
		for i, r := range distinct {
			if left[i] == 0 {
				continue
			}
			left[i]--
			out = append(out, append([]float64(nil), r...))
			more = true
		}
	}
	return out
}

// sixDistinctRows is three axis rows over {0.1, 0.3, 0.7} plus their three
// pairwise sums: values whose means of identical rows round to a few ulps
// off the row, the LAMMPS-at-100ms shape that made the k > 6 arms ping-pong
// a reseated copy against its duplicate until the iteration cap.
func sixDistinctRows() [][]float64 {
	return [][]float64{
		{0.1, 0, 0}, {0, 0.3, 0}, {0, 0, 0.7},
		{0.1, 0.3, 0}, {0.1, 0, 0.7}, {0, 0.3, 0.7},
	}
}

// checkDegenerateSweep sweeps k = 1..8 and demands that every arm with more
// clusters than distinct rows stops within two iterations flagged
// Degenerate, while every other arm matches the naive reference bit for bit.
func checkDegenerateSweep(t *testing.T, label string, pts [][]float64, distinct int) {
	t.Helper()
	results, err := Sweep(pts, 8, Options{Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		k := i + 1
		name := fmt.Sprintf("%s k=%d d=%d", label, k, distinct)
		if k > distinct {
			if !r.Degenerate || r.Iterations > 2 {
				t.Fatalf("%s: Degenerate=%v after %d iterations, want a degenerate stop within 2", name, r.Degenerate, r.Iterations)
			}
			continue
		}
		if r.Degenerate {
			t.Fatalf("%s: arm with k <= distinct rows flagged Degenerate", name)
		}
		opts := Options{Seed: 1 + uint64(k)*0x9e3779b97f4a7c15}
		sameResult(t, name, naiveKMeans(pts, k, opts), r)
	}
}

func TestSweepStopsDegenerateArms(t *testing.T) {
	distinct := sixDistinctRows()
	reps := make([]int, len(distinct))
	for i := range reps {
		reps[i] = 520
	}
	checkDegenerateSweep(t, "six-distinct", duplicateRows(distinct, reps), len(distinct))
}

// TestSweepStopsDegenerateArmsProperty draws the number of distinct rows and
// their repeat counts from a seeded RNG.
func TestSweepStopsDegenerateArmsProperty(t *testing.T) {
	rng := xmath.NewRNG(12)
	all := sixDistinctRows()
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		d := 1 + rng.Intn(len(all))
		reps := make([]int, d)
		for i := range reps {
			reps[i] = 1 + rng.Intn(300)
		}
		pts := duplicateRows(all[:d], reps)
		checkDegenerateSweep(t, fmt.Sprintf("trial %d", trial), pts, d)
	}
}

// TestSweepSpanMarksOnlyDegenerateArms: the cluster.kmeans span carries
// degenerate=true on the arms that stopped early and no such attribute on
// any other, so traces of non-degenerate sweeps are unchanged.
func TestSweepSpanMarksOnlyDegenerateArms(t *testing.T) {
	obs.Enable(obs.Config{Seed: 1})
	defer obs.Disable()
	if !obs.Enabled() {
		t.Skip("built with -tags obs_off")
	}
	distinct := sixDistinctRows()
	root := obs.Start("test")
	if _, err := Sweep(duplicateRows(distinct, []int{40, 40, 40, 40, 40, 40}), 8, Options{Seed: 1, Span: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	var b bytes.Buffer
	if err := obs.WriteTraceTree(&b, obs.ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	arms := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.Contains(line, "cluster.kmeans[") {
			continue
		}
		arms++
		k := 0
		fmt.Sscanf(strings.TrimSpace(line), "cluster.kmeans[%d]", &k)
		if want := k > len(distinct); strings.Contains(line, "degenerate=true") != want {
			t.Errorf("k=%d: want degenerate=%v in %q", k, want, line)
		}
	}
	if arms != 8 {
		t.Fatalf("found %d cluster.kmeans spans, want 8:\n%s", arms, b.String())
	}
}
