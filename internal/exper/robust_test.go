package exper

import (
	"context"
	"strings"
	"testing"

	"fastmon/internal/detect"
	"fastmon/internal/schedule"
)

func TestVariationRobustness(t *testing.T) {
	r, err := RunCircuit(context.Background(), mustSpec(t, "s9234"), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Flow.BuildSchedule(context.Background(), schedule.ILP, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	// Zero variation must reproduce the schedule exactly.
	p0, err := VariationRobustness(context.Background(), r, s, 0, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if p0.MeanCoverage < 0.9999 {
		t.Fatalf("zero-sigma coverage = %f, want 1.0", p0.MeanCoverage)
	}
	// So must a schedule whose monitors each pick their own delay element
	// (ConfigFree combos).
	opt := r.Flow.ScheduleOptions(schedule.ILP, 1.0)
	opt.FreeConfig = true
	free, err := schedule.Build(context.Background(), r.Flow.TargetData, opt)
	if err != nil {
		t.Fatal(err)
	}
	if free.Size() == 0 || free.Periods[0].Combos[0].Config != detect.ConfigFree {
		t.Fatalf("FreeConfig schedule has no ConfigFree combo: %+v", free.Periods)
	}
	pf, err := VariationRobustness(context.Background(), r, free, 0, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if pf.MeanCoverage < 0.9999 {
		t.Fatalf("zero-sigma coverage of the FreeConfig schedule = %f, want 1.0", pf.MeanCoverage)
	}

	// Mild variation (σ = 2%): mid-point capture times must hold up for
	// the vast majority of scheduled detections.
	p2, err := VariationRobustness(context.Background(), r, s, 0.02, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if p2.MeanCoverage < 0.70 {
		t.Fatalf("2%%-sigma coverage = %f too fragile", p2.MeanCoverage)
	}
	if p2.WorstCoverage > p2.MeanCoverage+1e-9 {
		t.Fatal("worst exceeds mean")
	}

	// Heavier variation can only hurt (allow small sampling noise).
	p10, err := VariationRobustness(context.Background(), r, s, 0.10, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if p10.MeanCoverage > p2.MeanCoverage+0.05 {
		t.Fatalf("more variation increased robustness: %f vs %f", p10.MeanCoverage, p2.MeanCoverage)
	}

	var sb strings.Builder
	WriteRobustness(&sb, []RobustnessPoint{p0, p2, p10})
	if !strings.Contains(sb.String(), "robustness") {
		t.Fatal("rendering broken")
	}
}

func TestVariationRobustnessEmptySchedule(t *testing.T) {
	r, err := RunCircuit(context.Background(), mustSpec(t, "s9234"), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	empty := &schedule.Schedule{}
	p, err := VariationRobustness(context.Background(), r, empty, 0.05, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.MeanCoverage != 1 {
		t.Fatal("empty schedule must be trivially robust")
	}
}
