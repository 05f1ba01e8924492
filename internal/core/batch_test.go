package core

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/fault"
)

// runLanePair runs one campaign config twice over the RTL model —
// scalar (Lanes=1) and bit-parallel (Lanes=64) — and requires the
// outcome streams to be byte-identical: same specs, classes, end
// cycles, convergence flags and pruning annotations for every index.
func runLanePair(t *testing.T, workload string, cfg campaign.Config) (*campaign.Result, *campaign.Result) {
	t.Helper()
	w, err := bench.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	f := Factory(ModelRTL, p, CampaignSetup())

	scalarCfg := cfg
	scalarCfg.Lanes = 1
	scalar, err := campaign.Run(f, scalarCfg)
	if err != nil {
		t.Fatal(err)
	}
	batchCfg := cfg
	batchCfg.Lanes = campaign.MaxLanes
	batch, err := campaign.Run(f, batchCfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(scalar.Outcomes, batch.Outcomes) {
		n := len(scalar.Outcomes)
		if len(batch.Outcomes) != n {
			t.Fatalf("outcome counts differ: scalar %d, batch %d", n, len(batch.Outcomes))
		}
		for i := range scalar.Outcomes {
			if !reflect.DeepEqual(scalar.Outcomes[i], batch.Outcomes[i]) {
				t.Fatalf("outcome %d differs:\nscalar %+v\nbatch  %+v", i, scalar.Outcomes[i], batch.Outcomes[i])
			}
		}
		t.Fatal("outcome streams differ")
	}
	if !reflect.DeepEqual(scalar.Counts, batch.Counts) {
		t.Fatalf("class counts differ: scalar %v, batch %v", scalar.Counts, batch.Counts)
	}
	if scalar.Unsafeness != batch.Unsafeness {
		t.Fatalf("unsafeness differs: scalar %+v, batch %+v", scalar.Unsafeness, batch.Unsafeness)
	}
	if scalar.BatchedRuns != 0 || scalar.PeeledRuns != 0 {
		t.Fatalf("scalar run reports batching: %d batched, %d peeled", scalar.BatchedRuns, scalar.PeeledRuns)
	}
	return scalar, batch
}

// TestBatchMatchesScalarAllModels is the engine's equivalence
// acceptance: for every fault model, a 64-lane RTL campaign classifies
// byte-identically to the scalar engine — lockstep retirement and
// lane peeling change throughput, never results.
func TestBatchMatchesScalarAllModels(t *testing.T) {
	models := []struct {
		name  string
		fault fault.Params
	}{
		{"transient", fault.Params{Model: fault.ModelTransient}},
		{"burst", fault.Params{Model: fault.ModelBurst}},
		{"stuck-at", fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom}},
		{"intermittent", fault.Params{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom}},
	}
	for _, m := range models {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			cfg := campaign.Config{
				Injections: 30,
				Seed:       7,
				Target:     fault.TargetRF,
				Window:     400,
				Fault:      m.fault,
				Workers:    3,
			}
			_, batch := runLanePair(t, "qsort", cfg)
			if batch.BatchedRuns+batch.PeeledRuns != len(batch.Outcomes) {
				t.Errorf("batch accounting %d+%d does not cover %d outcomes",
					batch.BatchedRuns, batch.PeeledRuns, len(batch.Outcomes))
			}
			if batch.LaneOccupancy <= 1 {
				t.Errorf("lane occupancy %.2f: batching never packed lanes", batch.LaneOccupancy)
			}
		})
	}
}

// TestBatchMatchesScalarComposed verifies the batch path composes with
// the rest of the engine exactly as the scalar path does: convergence
// early-exit, golden-trace pruning (both modes), sequential stopping
// and the L1D target all yield byte-identical outcome streams.
func TestBatchMatchesScalarComposed(t *testing.T) {
	base := campaign.Config{
		Injections: 30,
		Seed:       11,
		Target:     fault.TargetRF,
		Window:     400,
		Workers:    3,
	}
	cases := []struct {
		name string
		mod  func(*campaign.Config)
	}{
		{"early-stop", func(c *campaign.Config) { c.EarlyStop = true }},
		{"prune-dead", func(c *campaign.Config) { c.Prune = campaign.PruneDead; c.EarlyStop = true }},
		{"prune-classes", func(c *campaign.Config) { c.Prune = campaign.PruneClasses }},
		{"seq-stop", func(c *campaign.Config) {
			c.Injections = 60
			c.TargetError = 0.25
			c.MinRuns = 20
		}},
		{"l1d", func(c *campaign.Config) {
			c.Target = fault.TargetL1D
			c.EarlyStop = true
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			tc.mod(&cfg)
			runLanePair(t, "qsort", cfg)
		})
	}
}

// TestBatchSweepMatchesScalarSweep is the sweep-pool equivalence
// acceptance: routing Sweep's shared worker pool through per-worker
// BatchReplayers (Lanes=64) must reproduce the scalar sweep byte for
// byte — same outcome streams, counts and unsafeness for every
// campaign — while actually batching the lane-capable targets. A
// microarch campaign switched to the cursor schedule rides the same
// pool, so one pool interleaves all three engines.
func TestBatchSweepMatchesScalarSweep(t *testing.T) {
	w, err := bench.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	f := Factory(ModelRTL, p, CampaignSetup())
	ma := Factory(ModelMicroarch, p, CampaignSetup())
	matrix := func(lanes int) []campaign.SweepCampaign {
		sched := campaign.SchedStream
		if lanes > 1 {
			sched = campaign.SchedCursor
		}
		return []campaign.SweepCampaign{
			{
				Key: "rf", Group: "rtl/qsort", Factory: f,
				Config: campaign.Config{
					Injections: 30, Seed: 7, Target: fault.TargetRF,
					Window: 400, Lanes: lanes,
				},
			},
			{
				Key: "l1d", Group: "rtl/qsort", Factory: f,
				Config: campaign.Config{
					Injections: 30, Seed: 9, Target: fault.TargetL1D,
					Window: 400, Lanes: lanes, EarlyStop: true,
				},
			},
			{
				// No batch surface for latches: must fall back to the
				// scalar path inside the batched sweep.
				Key: "latches", Group: "rtl/qsort", Factory: f,
				Config: campaign.Config{
					Injections: 8, Seed: 3, Target: fault.TargetLatches,
					Window: 300, Lanes: lanes,
				},
			},
			{
				// No batch surface on the microarch model: the cursor
				// engine in the batched sweep, scalar in the other.
				Key: "ma", Group: "ma/qsort", Factory: ma,
				Config: campaign.Config{
					Injections: 30, Seed: 5, Target: fault.TargetRF,
					Window: 400, Lanes: lanes, Sched: sched,
				},
			},
		}
	}
	scalar, err := campaign.Sweep(matrix(1), campaign.SweepOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := campaign.Sweep(matrix(campaign.MaxLanes), campaign.SweepOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rf", "l1d", "latches", "ma"} {
		s, b := scalar.Results[key], batch.Results[key]
		if len(s.Outcomes) != len(b.Outcomes) {
			t.Fatalf("%s: outcome counts differ: scalar %d, batch %d", key, len(s.Outcomes), len(b.Outcomes))
		}
		for i := range s.Outcomes {
			if !reflect.DeepEqual(s.Outcomes[i], b.Outcomes[i]) {
				t.Fatalf("%s outcome %d differs:\nscalar %+v\nbatch  %+v", key, i, s.Outcomes[i], b.Outcomes[i])
			}
		}
		if !reflect.DeepEqual(s.Counts, b.Counts) {
			t.Fatalf("%s: class counts differ: scalar %v, batch %v", key, s.Counts, b.Counts)
		}
		if s.Unsafeness != b.Unsafeness {
			t.Fatalf("%s: unsafeness differs: scalar %+v, batch %+v", key, s.Unsafeness, b.Unsafeness)
		}
		if s.BatchedRuns != 0 || s.PeeledRuns != 0 {
			t.Errorf("%s: scalar sweep reports batching (%d batched, %d peeled)", key, s.BatchedRuns, s.PeeledRuns)
		}
	}
	for _, key := range []string{"rf", "l1d"} {
		b := batch.Results[key]
		if b.BatchedRuns+b.PeeledRuns != len(b.Outcomes) {
			t.Errorf("%s: batch accounting %d+%d does not cover %d outcomes",
				key, b.BatchedRuns, b.PeeledRuns, len(b.Outcomes))
		}
		if b.LaneOccupancy <= 1 {
			t.Errorf("%s: lane occupancy %.2f: the sweep never packed lanes", key, b.LaneOccupancy)
		}
	}
	if b := batch.Results["latches"]; b.BatchedRuns != 0 || b.PeeledRuns != 0 {
		t.Errorf("latch sweep campaign reports batching: %d batched, %d peeled", b.BatchedRuns, b.PeeledRuns)
	}
	if b := batch.Results["ma"]; b.BatchedRuns != 0 || b.PeeledRuns != 0 {
		t.Errorf("microarch sweep campaign reports batching: %d batched, %d peeled", b.BatchedRuns, b.PeeledRuns)
	}
	if batch.GoldenRuns != 2 {
		t.Errorf("batched sweep executed %d golden runs, want 2 (one shared per model)", batch.GoldenRuns)
	}
}

// TestBatchLatchesFallsBackScalar pins the capability boundary: the
// pipeline-latch target has no batch surface, so a Lanes=64 campaign
// silently runs the scalar engine and reports no batching.
func TestBatchLatchesFallsBackScalar(t *testing.T) {
	cfg := campaign.Config{
		Injections: 8,
		Seed:       3,
		Target:     fault.TargetLatches,
		Window:     300,
		Workers:    2,
	}
	_, batch := runLanePair(t, "qsort", cfg)
	if batch.BatchedRuns != 0 || batch.PeeledRuns != 0 || batch.LaneOccupancy != 0 {
		t.Errorf("latch campaign reports batching: %d batched, %d peeled, occupancy %.2f",
			batch.BatchedRuns, batch.PeeledRuns, batch.LaneOccupancy)
	}
}
