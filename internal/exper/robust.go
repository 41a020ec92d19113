package exper

import (
	"context"
	"fmt"
	"io"

	"fastmon/internal/fmerr"
	"fastmon/internal/schedule"
	"fastmon/internal/sim"
)

// RobustnessPoint reports how well a schedule survives process variation:
// the fraction of scheduled fault detections that still succeed when every
// gate delay is perturbed by N(1, σ).
//
// The discretization of Sec. IV-A picks interval *mid-points* "to cover
// the targeted faults robustly even under variations"; this experiment
// quantifies that choice.
type RobustnessPoint struct {
	SigmaFrac float64
	Trials    int
	// MeanCoverage is the average fraction of scheduled faults still
	// detected by their period's combos.
	MeanCoverage float64
	// WorstCoverage is the minimum across trials.
	WorstCoverage float64
}

// VariationRobustness re-simulates the scheduled (fault, pattern, config)
// detections under random delay variation and reports surviving coverage.
func VariationRobustness(ctx context.Context, r *Run, s *schedule.Schedule, sigmaFrac float64, trials int, seedBase int64) (RobustnessPoint, error) {
	flow := r.Flow
	pt := RobustnessPoint{SigmaFrac: sigmaFrac, Trials: trials, WorstCoverage: 1}
	total := 0
	for _, plan := range s.Periods {
		total += len(plan.Faults)
	}
	if total == 0 || trials <= 0 {
		pt.MeanCoverage = 1
		return pt, nil
	}
	model := flow.Model()
	horizon := flow.Clk + 1
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		if err := ctx.Err(); err != nil {
			return pt, fmerr.Wrap(fmerr.StageExper, "robustness", err)
		}
		annot := flow.Annot.WithVariation(sigmaFrac, seedBase+int64(trial))
		e := sim.NewEngine(flow.Circuit, annot)
		baseCache := map[int][]sim.Waveform{}
		baseline := func(pi int) ([]sim.Waveform, error) {
			if b, ok := baseCache[pi]; ok {
				return b, nil
			}
			b, err := e.BaselineContext(ctx, flow.Patterns[pi])
			if err != nil {
				return nil, err
			}
			baseCache[pi] = b
			return b, nil
		}
		detected := 0
		for _, plan := range s.Periods {
			for _, fi := range plan.Faults {
				f := flow.TargetData[fi].Fault
				ok := false
				for _, combo := range plan.Combos {
					base, err := baseline(combo.Pattern)
					if err != nil {
						return pt, err
					}
					dets := e.FaultSim(base, f.Injection(flow.Delta), horizon)
					for _, det := range dets {
						diff := det.Diff.FilterShort(flow.DetectCfg.Glitch)
						if diff.Contains(plan.Period) || flow.Placement.Covers(det.Tap) &&
							model.ViaMonitor(diff, plan.Period, combo.Config) {
							ok = true
							break
						}
					}
					if ok {
						break
					}
				}
				if ok {
					detected++
				}
			}
		}
		cov := float64(detected) / float64(total)
		sum += cov
		if cov < pt.WorstCoverage {
			pt.WorstCoverage = cov
		}
	}
	pt.MeanCoverage = sum / float64(trials)
	return pt, nil
}

// WriteRobustness renders a sigma sweep.
func WriteRobustness(w io.Writer, pts []RobustnessPoint) {
	fmt.Fprintf(w, "Schedule robustness under process variation (mid-point observation times)\n")
	fmt.Fprintf(w, "%8s %8s %10s %10s\n", "sigma", "trials", "mean", "worst")
	for _, p := range pts {
		fmt.Fprintf(w, "%7.1f%% %8d %9.1f%% %9.1f%%\n",
			p.SigmaFrac*100, p.Trials, p.MeanCoverage*100, p.WorstCoverage*100)
	}
}
