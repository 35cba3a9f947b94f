package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/report"
)

// phaseOptions are cmd/phasedetect's defaults: k <= 8, Elbow selection,
// 95 % coverage, cluster seed 1, MPI pseudo-functions excluded.
func phaseOptions(parallelism int) phase.Options {
	opts := phase.Options{
		KMax:              8,
		CoverageThreshold: 0.95,
		Selection:         phase.Elbow,
		Algorithm:         phase.KMeansAlg,
		Cluster:           cluster.Options{Seed: 1, Parallelism: parallelism},
	}
	opts.Features.Exclude = mpi.IsMPIFunc
	return opts
}

// detectReport is the reference path: phase.Detect over the profiles,
// rendered.
func detectReport(profiles []interval.Profile, opts phase.Options) ([]byte, error) {
	det, err := phase.Detect(profiles, opts)
	if err != nil {
		return nil, err
	}
	return renderReport(det, profiles)
}

// renderReport writes the report cmd/phasedetect prints with its default
// flags: the summary line, the WCSS sweep, the phase/site table and the
// phase timeline.
func renderReport(det *phase.Detection, profiles []interval.Profile) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d intervals, %d feature dimensions, %d phases (%s/%s)\n",
		len(profiles), det.Matrix.Dims(), len(det.Phases), "kmeans", "elbow")
	if len(det.WCSS) > 0 {
		b.WriteString("WCSS sweep:")
		for k, w := range det.WCSS {
			fmt.Fprintf(&b, " k%d=%.3g", k+1, w)
		}
		b.WriteString("\n")
	}
	tb := report.NewTable("Phases and instrumentation sites (Algorithm 1)",
		"Phase ID", "Intervals", "Span", "Site Function", "Phase %", "App %", "Inst. Type")
	for _, p := range det.Phases {
		span := fmt.Sprintf("%d..%d", p.Intervals[0], p.Intervals[len(p.Intervals)-1])
		dur := p.Duration(time.Second)
		for i, s := range p.Sites {
			id, count, spanCell := "", "", ""
			if i == 0 {
				id = fmt.Sprint(p.ID)
				count = fmt.Sprintf("%d (%s)", len(p.Intervals), dur)
				spanCell = span
			}
			tb.AddRow(id, count, spanCell, s.Function,
				fmt.Sprintf("%.1f", s.PhasePct), fmt.Sprintf("%.1f", s.AppPct), s.Type.String())
		}
		if len(p.Sites) == 0 {
			tb.AddRow(fmt.Sprint(p.ID), fmt.Sprint(len(p.Intervals)), span, "(none)", "", "", "")
		}
	}
	if err := tb.Render(&b); err != nil {
		return nil, err
	}
	assign := make([]int, len(profiles))
	for i := range assign {
		assign[i] = -1
	}
	for _, p := range det.Phases {
		for _, idx := range p.Intervals {
			assign[idx] = p.ID
		}
	}
	b.WriteString("\n")
	if err := report.RenderPhaseTimeline(&b, "Phase timeline:", assign, 100); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
