package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/incprof/incprof/internal/apps/lammps"
	"github.com/incprof/incprof/internal/apps/minife"
	_ "github.com/incprof/incprof/internal/gmon" // register the gmon frontend
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/pipeline"
	"github.com/incprof/incprof/internal/pprof"
	"github.com/incprof/incprof/internal/profile"
)

// dumpInterval is the IncProf dump interval of the application workloads.
const dumpInterval = 100 * time.Millisecond

// input is one generated workload input: the cumulative samples the
// collector produced (the live path feeds them from memory) and, for the
// batch workloads, the directory the same samples were written to.
type input struct {
	samples []*profile.Sample
	dir     string // "" when the workload keeps its input in memory only
	format  string // dump format name ("gmon" or "pprof"), "" when dir is ""
	// label describes where the samples came from (rank, lattice seed).
	label string
}

// genMiniFE runs MiniFE under the profiler and collector and keeps the
// cumulative dumps of the rank the seed picks.
func genMiniFE(scale float64, seed uint64) ([]*profile.Sample, string, error) {
	app := minife.New(minife.DefaultParams(scale))
	res, err := pipeline.Collect(app, pipeline.CollectOptions{Interval: dumpInterval, Profile: true})
	if err != nil {
		return nil, "", fmt.Errorf("collecting minife: %w", err)
	}
	rank := miniFERank(seed, len(res.Snapshots))
	return res.Snapshots[rank], fmt.Sprintf("minife rank %d", rank), nil
}

// miniFERank maps the workload seed onto one of the run's ranks.
func miniFERank(seed uint64, ranks int) int { return int(seed % uint64(ranks)) }

// genLAMMPS runs LAMMPS with the seed as its lattice and velocity seed and
// keeps rank 0's cumulative dumps.
func genLAMMPS(scale float64, seed uint64) ([]*profile.Sample, string, error) {
	p := lammps.DefaultParams(scale)
	p.Seed = seed
	res, err := pipeline.Collect(lammps.New(p), pipeline.CollectOptions{Interval: dumpInterval, Profile: true})
	if err != nil {
		return nil, "", fmt.Errorf("collecting lammps: %w", err)
	}
	return res.Snapshots[0], fmt.Sprintf("lammps rank 0, lattice seed %d", seed), nil
}

// Shape of the synthetic service-like stream at scale 1.
const (
	wideDumps     = 1000
	wideUniverse  = 1500 // function names the service can call
	widePhases    = 6
	wideActive    = 40   // functions doing sampled work in each phase
	wideStay      = 0.9  // Markov probability of staying in the current phase
	wideSamples   = 30.0 // mean samples per active function and interval
	wideInterval  = time.Second
	widePeriod    = time.Millisecond
	wideSeedSalt  = 0x5e71ce
	wideActiveHit = 0.9 // chance an active function is sampled in an interval
)

// genWide synthesizes a service-like cumulative stream: a few phases, each
// keeping a few dozen functions of a wide universe busy, with Markov
// switching between the phases. Each interval samples only its phase's
// functions, so the feature matrix is wide and sparse.
func genWide(scale float64, seed uint64) ([]*profile.Sample, string) {
	rng := rand.New(rand.NewSource(int64(seed ^ wideSeedSalt)))
	n := int(float64(wideDumps)*scale + 0.5)
	if n < 20 {
		n = 20
	}
	names := make([]string, wideUniverse)
	for i := range names {
		names[i] = fmt.Sprintf("svc/pkg%02d.Handler%04d", rng.Intn(60), i)
	}
	type work struct {
		fn     int
		weight float64
	}
	// Disjoint function sets, all listed in every dump (zero until first
	// sampled), keep the dump sizes and the matrix width the same for every
	// seed.
	perm := rng.Perm(wideUniverse)
	phases := make([][]work, widePhases)
	for p := range phases {
		for _, fn := range perm[p*wideActive : (p+1)*wideActive] {
			phases[p] = append(phases[p], work{fn, 0.2 + 1.8*rng.Float64()})
		}
	}

	samples := make([]int64, wideUniverse)
	calls := make([]int64, wideUniverse)
	out := make([]*profile.Sample, 0, n)
	cur := rng.Intn(widePhases)
	for seq := 0; seq < n; seq++ {
		if seq > 0 && rng.Float64() > wideStay {
			cur = (cur + 1 + rng.Intn(widePhases-1)) % widePhases
		}
		for _, w := range phases[cur] {
			if rng.Float64() >= wideActiveHit {
				continue
			}
			samples[w.fn] += 1 + int64(w.weight*wideSamples*(0.7+0.6*rng.Float64()))
			calls[w.fn] += 1 + int64(rng.Intn(200))
		}
		s := &profile.Sample{
			Seq:          seq,
			Timestamp:    time.Duration(seq+1) * wideInterval,
			SamplePeriod: widePeriod,
		}
		for _, fn := range perm[:widePhases*wideActive] {
			s.Funcs = append(s.Funcs, profile.FuncRecord{
				Name:     names[fn],
				Samples:  samples[fn],
				SelfTime: time.Duration(samples[fn]) * widePeriod,
				Calls:    calls[fn],
			})
		}
		s.Normalize()
		out = append(out, s)
	}
	return out, fmt.Sprintf("synthetic service stream, seed %d", seed)
}

// writeGmon writes samples as gmon.out.N files through the collector's
// directory store, as cmd/incprof does.
func writeGmon(dir string, samples []*profile.Sample) error {
	st, err := incprof.NewDirStore(dir, false)
	if err != nil {
		return err
	}
	for _, s := range samples {
		if err := st.Put(s); err != nil {
			return fmt.Errorf("writing dump %d: %w", s.Seq, err)
		}
	}
	return nil
}

// writePprof writes samples as pprof.out.N files through the pprof
// frontend's encoder.
func writePprof(dir string, samples []*profile.Sample) error {
	f, ok := profile.Lookup("pprof")
	if !ok {
		return fmt.Errorf("pprof format not registered")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range samples {
		if err := writeFile(filepath.Join(dir, f.FileName(s.Seq)), func(w *bufio.Writer) error {
			return pprof.Encode(w, s)
		}); err != nil {
			return fmt.Errorf("writing dump %d: %w", s.Seq, err)
		}
	}
	return nil
}

func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
