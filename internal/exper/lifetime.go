package exper

import (
	"context"
	"fmt"
	"io"

	"fastmon/internal/aging"
	"fastmon/internal/cell"
	"fastmon/internal/core"
	"fastmon/internal/fault"
	"fastmon/internal/sta"
)

// LifetimePoint captures the fault landscape of one aged device: as the
// circuit degrades, hidden delay faults grow into at-speed-detectable
// faults — the paper's motivation made measurable. A young marginal
// device shows its weakness only to FAST; the same defect surfaces to a
// plain at-speed test years later, when the damage is done.
type LifetimePoint struct {
	Years float64
	// AtSpeed counts faults a plain at-speed test exposes (structural
	// classification at the *original* nominal clock).
	AtSpeed int
	// HDFConv / HDFProp count hidden delay faults detectable by
	// conventional FAST and with monitors, from timing-accurate
	// simulation of the aged netlist.
	HDFConv int
	HDFProp int
	// CPLGrowthPct is the critical-path growth relative to the fresh
	// device.
	CPLGrowthPct float64
}

// LifetimeSweep ages the circuit over the checkpoints and reruns fault
// classification and detection on each aged annotation against the fresh
// device's nominal clock. Both the structural classification and the
// simulation-based HDF counts shift from "hidden" toward "at-speed" as
// delays grow.
func LifetimeSweep(ctx context.Context, spec Spec, cfg SuiteConfig, model aging.Model, years []float64) ([]LifetimePoint, error) {
	cfg = cfg.Defaults()
	c, err := spec.Build(cfg.Scale)
	if err != nil {
		return nil, err
	}
	lib := cell.NanGate45()
	fresh := cell.Annotate(c, lib)
	freshSTA := sta.Analyze(c, fresh)
	freshClk := freshSTA.NominalClock(core.ClockMargin)
	fcfg := cfg.flowConfig(spec, c)

	var out []LifetimePoint
	for _, y := range years {
		aged := aging.Degrade(fresh, model, y)
		flow, err := core.Run(ctx, c, lib, aged, fcfg)
		if err != nil {
			return nil, fmt.Errorf("year %.1f: %w", y, err)
		}
		// Structural at-speed classification of the aged timing
		// (flow.Timing) against the FRESH device's shipping clock: the
		// test floor does not re-time the part.
		atSpeed := 0
		ccfg := fault.ClassifyConfig{
			Clk: freshClk, TMin: flow.TMin, Delta: flow.Delta,
			MaxMonitorDelay: flow.Placement.MaxDelay(),
		}
		for _, f := range flow.Universe {
			if fault.Classify(f, flow.Timing, ccfg) == fault.AtSpeedDetectable {
				atSpeed++
			}
		}
		out = append(out, LifetimePoint{
			Years:        y,
			AtSpeed:      atSpeed,
			HDFConv:      len(flow.ConvDetected),
			HDFProp:      len(flow.PropDetected),
			CPLGrowthPct: (float64(flow.Timing.CPL)/float64(freshSTA.CPL) - 1) * 100,
		})
	}
	return out, nil
}

// WriteLifetime renders the sweep.
func WriteLifetime(w io.Writer, pts []LifetimePoint) {
	fmt.Fprintf(w, "Lifetime sweep: hidden delay faults grow into at-speed failures\n")
	fmt.Fprintf(w, "%7s %10s %9s %9s %10s\n", "years", "at-speed", "HDF-conv", "HDF-prop", "CPL-growth")
	for _, p := range pts {
		fmt.Fprintf(w, "%7.1f %10d %9d %9d %9.1f%%\n",
			p.Years, p.AtSpeed, p.HDFConv, p.HDFProp, p.CPLGrowthPct)
	}
}
