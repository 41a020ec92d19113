package exper

import (
	"context"
	"strings"
	"testing"

	"fastmon/internal/core"
	"fastmon/internal/schedule"
)

// baseRun runs the named circuit's suite flow at smallCfg and builds its
// full-coverage ILP schedule, the base the ablations share.
func baseRun(t *testing.T, name string) (*Run, *schedule.Schedule) {
	t.Helper()
	r, err := RunCircuit(context.Background(), mustSpec(t, name), smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.Flow.BuildSchedule(context.Background(), schedule.ILP, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return r, base
}

// rerun runs r's flow again with cfg varied, as a study run at cfg.
func rerun(t *testing.T, r *Run, vary func(*core.Config)) *Run {
	t.Helper()
	cfg := r.Flow.Config
	vary(&cfg)
	f, err := core.Run(context.Background(), r.Flow.Circuit, r.Flow.Library, r.Flow.Annot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Run{Spec: r.Spec, Flow: f}
}

func TestAblateMonitorFraction(t *testing.T) {
	ctx := context.Background()
	r, base := baseRun(t, "s9234")
	rows, err := AblateMonitorFraction(ctx, r, base, []float64{0.10, 0.25, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Monitors < rows[i-1].Monitors {
			t.Fatal("monitor count not monotone in fraction")
		}
		if rows[i].Prop < rows[i-1].Prop {
			t.Fatalf("more monitors reduced prop coverage: %+v", rows)
		}
		// Conventional detection is independent of placement.
		if rows[i].Conv != rows[0].Conv {
			t.Fatalf("conv coverage changed with monitor fraction: %+v", rows)
		}
	}
	// The 0.25 row reads the run itself. Seen from a run at fraction 1,
	// where that point is rerun and the 1.0 point is read, both rows must
	// be the same.
	full := rerun(t, r, func(c *core.Config) { c.MonitorFraction = 1.0 })
	fullBase, err := full.Flow.BuildSchedule(ctx, schedule.ILP, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := AblateMonitorFraction(ctx, full, fullBase, []float64{0.25, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != rows[1] || again[1] != rows[2] {
		t.Fatalf("rows depend on the run's own fraction:\n%+v\n%+v", rows[1:], again)
	}
}

func TestAblateDelayConfigs(t *testing.T) {
	ctx := context.Background()
	r, base := baseRun(t, "s9234")
	rows, err := AblateDelayConfigs(ctx, r, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More delay elements can only increase coverable targets.
	for i := 1; i < len(rows); i++ {
		if rows[i].Coverable < rows[i-1].Coverable {
			t.Fatalf("coverable not monotone in element count: %+v", rows)
		}
	}
	// Full programmability covers everything the flow targeted.
	if rows[3].Coverable != len(r.Flow.TargetData) {
		t.Fatalf("4-element subset coverable=%d, want %d", rows[3].Coverable, len(r.Flow.TargetData))
	}
	// The 4-element row is the base schedule, which a one-shot build of
	// the same options reproduces.
	s, err := schedule.Build(ctx, r.Flow.TargetData, r.Flow.ScheduleOptions(schedule.ILP, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[3]; got.Freqs != s.NumFrequencies() || got.Size != s.Size() || got.Coverable != s.Coverable {
		t.Fatalf("4-element row %+v, one-shot build |F|=%d |S|=%d coverable=%d",
			got, s.NumFrequencies(), s.Size(), s.Coverable)
	}
}

func TestAblateGlitch(t *testing.T) {
	r, _ := baseRun(t, "s9234")
	rows, err := AblateGlitch(context.Background(), r, []float64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More pessimistic filtering can only lose detections.
	for i := 1; i < len(rows); i++ {
		if rows[i].Prop > rows[i-1].Prop || rows[i].Conv > rows[i-1].Conv {
			t.Fatalf("stricter glitch filter increased coverage: %+v", rows)
		}
	}
	if rows[0].Glitch != 0 && rows[0].Scale == 0 {
		// Scale 0 maps to a 1e-9 threshold, which rounds to zero ps.
		t.Fatalf("scale-0 threshold = %v", rows[0].Glitch)
	}
	// The scale-1 row reads the run itself. Seen from a run at scale 2,
	// where that point is rerun and the scale-2 point is read, both rows
	// must be the same.
	strict := rerun(t, r, func(c *core.Config) { c.GlitchScale = 2 })
	again, err := AblateGlitch(context.Background(), strict, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != rows[1] || again[1] != rows[2] {
		t.Fatalf("rows depend on the run's own scale:\n%+v\n%+v", rows[1:], again)
	}
}

func TestWriteAblation(t *testing.T) {
	var sb strings.Builder
	WriteAblation(&sb,
		[]FractionRow{{Fraction: 0.25, Monitors: 5}},
		[]DelayRow{{Label: "x", Coverable: 3}},
		[]GlitchRow{{Scale: 1, Conv: 2, Prop: 3}},
	)
	out := sb.String()
	for _, want := range []string{"Ablation A", "Ablation B", "Ablation C"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
	// Empty inputs render nothing.
	var sb2 strings.Builder
	WriteAblation(&sb2, nil, nil, nil)
	if sb2.String() != "" {
		t.Fatal("empty ablation rendered output")
	}
}

func TestAblateFreeConfig(t *testing.T) {
	r, base := baseRun(t, "s13207")
	rows, err := AblateFreeConfig(context.Background(), r, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	shared, free := rows[0], rows[1]
	// Frequency selection is restriction-independent.
	if shared.Freqs != free.Freqs {
		t.Fatalf("|F| differs: %d vs %d", shared.Freqs, free.Freqs)
	}
	// Per-monitor tuning can only reduce the application count.
	if free.Size > shared.Size {
		t.Fatalf("free config larger: %d vs %d", free.Size, shared.Size)
	}
	// The shared row is the base schedule.
	if shared.Freqs != base.NumFrequencies() || shared.Size != base.Size() {
		t.Fatalf("shared row %+v, base |F|=%d |S|=%d", shared, base.NumFrequencies(), base.Size())
	}
	var sb strings.Builder
	WriteFreeConfig(&sb, rows)
	if !strings.Contains(sb.String(), "Ablation D") {
		t.Fatal("rendering broken")
	}
	WriteFreeConfig(&sb, nil) // no-op
}
