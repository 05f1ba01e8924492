package main

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// Stand-in simulators covering the four capability combinations; only
// the type assertions matter here.
type (
	plainSim     struct{ campaign.Simulator }
	liveOnlySim  struct{ campaign.Simulator }
	batchOnlySim struct{ campaign.Simulator }
	bothSim      struct{ campaign.Simulator }
)

func (liveOnlySim) LiveSnapshot() campaign.Snapshot                   { return nil }
func (batchOnlySim) BatchLanes(fault.Target) (campaign.LaneSet, bool) { return nil, false }
func (bothSim) LiveSnapshot() campaign.Snapshot                       { return nil }
func (bothSim) BatchLanes(fault.Target) (campaign.LaneSet, bool)      { return nil, false }

// TestDecoratorExposesCapabilities: the engines pick the cursor fork
// and the bit-parallel path by type assertion, so the decorator must
// offer each optional interface exactly when the wrapped model does.
func TestDecoratorExposesCapabilities(t *testing.T) {
	for _, inner := range []campaign.Simulator{plainSim{}, liveOnlySim{}, batchOnlySim{}, bothSim{}} {
		_, wantLive := inner.(campaign.LiveSnapshotter)
		_, wantBatch := inner.(campaign.BatchCapable)
		s := expose(&tracedSim{inner: inner})
		_, live := s.(campaign.LiveSnapshotter)
		_, batch := s.(campaign.BatchCapable)
		if live != wantLive || batch != wantBatch {
			t.Errorf("%T: decorator live=%v batch=%v, want live=%v batch=%v", inner, live, batch, wantLive, wantBatch)
		}
		if _, ok := s.(traced); !ok {
			t.Errorf("%T: decorator does not unwrap", inner)
		}
	}
	for _, m := range []core.Model{core.ModelMicroarch, core.ModelRTL} {
		inner, err := core.Factory(m, program(t, "qsort"), core.CampaignSetup())()
		if err != nil {
			t.Fatal(err)
		}
		_, wantLive := inner.(campaign.LiveSnapshotter)
		_, wantBatch := inner.(campaign.BatchCapable)
		s := expose(&tracedSim{inner: inner})
		if _, live := s.(campaign.LiveSnapshotter); live != wantLive {
			t.Errorf("%v: decorator live=%v, model %v", m, live, wantLive)
		}
		if _, batch := s.(campaign.BatchCapable); batch != wantBatch {
			t.Errorf("%v: decorator batch=%v, model %v", m, batch, wantBatch)
		}
	}
}

func program(t *testing.T, name string) *asm.Program {
	t.Helper()
	w, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tracedRun runs one campaign untraced and traced, requires identical
// outcomes, and returns the traced result and the level's stats.
func tracedRun(t *testing.T, m core.Model, cfg campaign.Config) (*campaign.Result, *layerStats) {
	t.Helper()
	f := core.Factory(m, program(t, "qsort"), core.CampaignSetup())
	want, err := campaign.Run(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	got, err := campaign.Run(tr.wrap(m.String(), f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Fatalf("%v: traced outcomes differ from untraced", m)
	}
	st := tr.collect()[m.String()]
	if st == nil {
		t.Fatalf("%v: no replay instance traced", m)
	}
	return got, st
}

// TestTracerCountsBatchLanes: an RTL campaign stays on the bit-parallel
// path under the decorator, and the wrapped LaneSet counts one lane
// injection per lockstep replay and one peel per replay finished on the
// scalar tail.
func TestTracerCountsBatchLanes(t *testing.T) {
	res, st := tracedRun(t, core.ModelRTL, campaign.Config{
		Injections: 24, Seed: 3, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500, Workers: 2,
	})
	if res.BatchedRuns+res.PeeledRuns != len(res.Outcomes) {
		t.Fatalf("batched %d + peeled %d of %d: campaign left the batch path", res.BatchedRuns, res.PeeledRuns, len(res.Outcomes))
	}
	if st.laneInjects != len(res.Outcomes) {
		t.Errorf("lane injects %d, want %d", st.laneInjects, len(res.Outcomes))
	}
	if st.peels != res.PeeledRuns || res.PeeledRuns == 0 {
		t.Errorf("peels %d, campaign peeled %d (want equal and non-zero)", st.peels, res.PeeledRuns)
	}
	if st.lockTime <= 0 || st.lockCycles == 0 {
		t.Errorf("no lockstep time recorded: %v over %d cycles", st.lockTime, st.lockCycles)
	}
}

// TestTracerCountsCursorForks: a cursor-scheduled microarch campaign
// forks through LiveSnapshot under the decorator (one fork per replay),
// and the traced fast-forward equals the engine's own count.
func TestTracerCountsCursorForks(t *testing.T) {
	res, st := tracedRun(t, core.ModelMicroarch, campaign.Config{
		Injections: 24, Seed: 3, Target: fault.TargetRF,
		Obs: campaign.ObsSOP, EarlyStop: true, Sched: campaign.SchedCursor, Workers: 2,
	})
	if st.forks != len(res.Outcomes) {
		t.Errorf("forks %d, want one per replay (%d)", st.forks, len(res.Outcomes))
	}
	if st.injCalls != len(res.Outcomes) {
		t.Errorf("injections %d, want %d", st.injCalls, len(res.Outcomes))
	}
	if st.ffCycles != res.FastForwardCycles {
		t.Errorf("traced fast-forward %d cycles, engine counted %d", st.ffCycles, res.FastForwardCycles)
	}
	if len(st.hash) == 0 || st.winTime <= 0 {
		t.Errorf("hash calls %d, window time %v: want both non-zero", len(st.hash), st.winTime)
	}
}
