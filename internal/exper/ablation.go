package exper

import (
	"context"
	"fmt"
	"io"

	"fastmon/internal/core"
	"fastmon/internal/schedule"
	"fastmon/internal/tunit"
)

// Ablation studies for the design choices DESIGN.md calls out: how much of
// the headline gain comes from the monitor budget (fraction of monitored
// pseudo outputs), from the *programmability* (number of delay elements),
// and how sensitive detection is to the pessimistic glitch threshold.

// FractionRow is one monitor-fraction ablation point.
type FractionRow struct {
	Fraction float64
	Monitors int
	Conv     int // conventional detection is fraction-independent (sanity column)
	Prop     int
	Target   int
	Freqs    int // |F| of the ILP schedule at full coverage
	Size     int // |S|
}

// AblateMonitorFraction reruns the first circuit's flow with different
// monitor budgets. The paper fixes 25%; the ablation shows the
// coverage/test-time trade-off around that choice. A point at the run's
// own fraction reads the run and base, its full-coverage ILP schedule
// (r.Flow.BuildSchedule(ctx, schedule.ILP, 1.0)).
func AblateMonitorFraction(ctx context.Context, r *Run, base *schedule.Schedule, fractions []float64) ([]FractionRow, error) {
	var rows []FractionRow
	for _, fr := range fractions {
		cfg := r.Flow.Config
		cfg.MonitorFraction = fr
		flow, err := r.flowAt(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("fraction %.2f: %w", fr, err)
		}
		row := FractionRow{
			Fraction: fr,
			Monitors: flow.Placement.NumMonitors(),
			Conv:     len(flow.ConvDetected),
			Prop:     len(flow.PropDetected),
			Target:   len(flow.TargetIdx),
		}
		if len(flow.TargetData) > 0 {
			s := base
			if flow != r.Flow {
				if s, err = flow.BuildSchedule(ctx, schedule.ILP, 1.0); err != nil {
					return nil, err
				}
			}
			row.Freqs, row.Size = s.NumFrequencies(), s.Size()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// flowAt is the run's flow under cfg: the run's own flow at its own
// configuration, else a rerun on its circuit, library and annotation.
func (r *Run) flowAt(ctx context.Context, cfg core.Config) (*core.Flow, error) {
	if cfg == r.Flow.Config {
		return r.Flow, nil
	}
	return core.Run(ctx, r.Flow.Circuit, r.Flow.Library, r.Flow.Annot, cfg)
}

// DelayRow is one delay-element ablation point.
type DelayRow struct {
	Label     string
	Delays    []tunit.Time
	Coverable int // target faults reachable with this element subset
	Freqs     int
	Size      int
}

// AblateDelayConfigs re-schedules a completed run with subsets of the
// programmable delay elements. The single ⅓·clk element corresponds to the
// fixed monitors of [14]; the full set is the paper's programmable
// monitor, whose row is base, the run's full-coverage ILP schedule.
// Detection data is reused — only the shifting and scheduling change.
func AblateDelayConfigs(ctx context.Context, r *Run, base *schedule.Schedule) ([]DelayRow, error) {
	flow := r.Flow
	all := flow.Delays()
	subsets := []struct {
		label  string
		delays []tunit.Time
	}{
		{"none (conv.)", nil},
		{"⅓·clk only", []tunit.Time{all[3]}},
		{"2 elements", []tunit.Time{all[1], all[3]}},
		{"4 elements", all},
	}
	var rows []DelayRow
	for _, sub := range subsets {
		s := base // the full set
		if len(sub.delays) < len(all) {
			opt := flow.ScheduleOptions(schedule.ILP, 1.0)
			opt.Delays = sub.delays
			if sub.delays == nil {
				opt.Method = schedule.Conventional
			}
			var err error
			if s, err = schedule.Build(ctx, flow.TargetData, opt); err != nil {
				return nil, fmt.Errorf("%s: %w", sub.label, err)
			}
		}
		rows = append(rows, DelayRow{
			Label:     sub.label,
			Delays:    sub.delays,
			Coverable: s.Coverable,
			Freqs:     s.NumFrequencies(),
			Size:      s.Size(),
		})
	}
	return rows, nil
}

// FreeConfigRow compares the paper's shared monitor setting against
// per-monitor independent settings (best-case model) — the natural
// extension the paper's Sec. IV-B assumption forecloses.
type FreeConfigRow struct {
	Label string
	Freqs int
	Size  int
}

// AblateFreeConfig re-schedules a completed run with and without the
// shared-setting restriction; the shared row is base, the run's
// full-coverage ILP schedule. Frequency selection is identical (the
// coverable union does not depend on the restriction); only the
// per-frequency pattern-configuration count changes.
func AblateFreeConfig(ctx context.Context, r *Run, base *schedule.Schedule) ([]FreeConfigRow, error) {
	flow := r.Flow
	opt := flow.ScheduleOptions(schedule.ILP, 1.0)
	if err := schedule.Validate(flow.TargetData, base, opt); err != nil {
		return nil, err
	}
	opt.FreeConfig = true
	free, err := schedule.Build(ctx, flow.TargetData, opt)
	if err != nil {
		return nil, err
	}
	if err := schedule.Validate(flow.TargetData, free, opt); err != nil {
		return nil, err
	}
	return []FreeConfigRow{
		{Label: "shared setting (paper)", Freqs: base.NumFrequencies(), Size: base.Size()},
		{Label: "per-monitor (bound)", Freqs: free.NumFrequencies(), Size: free.Size()},
	}, nil
}

// GlitchRow is one glitch-threshold ablation point.
type GlitchRow struct {
	Scale  float64
	Glitch tunit.Time
	Conv   int
	Prop   int
}

// AblateGlitch reruns the first circuit's flow with scaled
// pulse-filtering thresholds to quantify the cost of the pessimistic
// filtering of Fig. 1 (scale 0 = optimistic, no filtering). A point at the
// run's own scale reads the run.
func AblateGlitch(ctx context.Context, r *Run, scales []float64) ([]GlitchRow, error) {
	var rows []GlitchRow
	for _, sc := range scales {
		cfg := r.Flow.Config
		cfg.GlitchScale = sc
		if sc == 0 {
			// Defaults() maps 0 to 1; use a tiny positive value for the
			// "no filtering" point.
			cfg.GlitchScale = 1e-9
		}
		flow, err := r.flowAt(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("glitch scale %.1f: %w", sc, err)
		}
		rows = append(rows, GlitchRow{
			Scale:  sc,
			Glitch: flow.DetectCfg.Glitch,
			Conv:   len(flow.ConvDetected),
			Prop:   len(flow.PropDetected),
		})
	}
	return rows, nil
}

// WriteFreeConfig renders the shared-vs-independent study.
func WriteFreeConfig(w io.Writer, rows []FreeConfigRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Ablation D: shared vs per-monitor delay settings (extension)\n")
	fmt.Fprintf(w, "%-24s %6s %6s\n", "model", "|F|", "|S|")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %6d %6d\n", r.Label, r.Freqs, r.Size)
	}
	fmt.Fprintln(w)
}

// WriteAblation renders the three studies.
func WriteAblation(w io.Writer, fr []FractionRow, dr []DelayRow, gr []GlitchRow) {
	if len(fr) > 0 {
		fmt.Fprintf(w, "Ablation A: monitor budget (fraction of pseudo outputs monitored)\n")
		fmt.Fprintf(w, "%9s %9s %8s %8s %8s %6s %6s\n", "fraction", "monitors", "conv", "prop", "target", "|F|", "|S|")
		for _, r := range fr {
			fmt.Fprintf(w, "%9.2f %9d %8d %8d %8d %6d %6d\n",
				r.Fraction, r.Monitors, r.Conv, r.Prop, r.Target, r.Freqs, r.Size)
		}
		fmt.Fprintln(w)
	}
	if len(dr) > 0 {
		fmt.Fprintf(w, "Ablation B: programmability (delay-element subsets, same detection data)\n")
		fmt.Fprintf(w, "%-14s %10s %6s %6s\n", "elements", "coverable", "|F|", "|S|")
		for _, r := range dr {
			fmt.Fprintf(w, "%-14s %10d %6d %6d\n", r.Label, r.Coverable, r.Freqs, r.Size)
		}
		fmt.Fprintln(w)
	}
	if len(gr) > 0 {
		fmt.Fprintf(w, "Ablation C: glitch-filter pessimism (threshold scale)\n")
		fmt.Fprintf(w, "%7s %9s %8s %8s\n", "scale", "thresh", "conv", "prop")
		for _, r := range gr {
			fmt.Fprintf(w, "%7.1f %9s %8d %8d\n", r.Scale, r.Glitch, r.Conv, r.Prop)
		}
		fmt.Fprintln(w)
	}
}
