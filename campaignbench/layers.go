package main

import (
	"time"

	"repro/internal/core"
)

// levels are the model levels the per-layer metrics are reported for.
var levels = []string{"microarch", "rtl"}

// layerMetrics builds the traced run's per-layer metrics. Counts and
// times are per traced iteration (summed over traced iterations and
// divided by their number); latency quantiles pool every call. Metrics
// of a layer the workload does not exercise read 0; layers no workload
// exercises are not reported.
func layerMetrics(items []core.MatrixItem, iters []iteration, setup setupTimes, local *iterOut) map[string]metric {
	ms := make(map[string]metric)
	set := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }

	var traced []iteration
	var fpsTraced, fpsPlain, walls []float64
	for _, it := range iters {
		fps := float64(it.planned) / it.wall.Seconds()
		if it.traced {
			traced = append(traced, it)
			fpsTraced = append(fpsTraced, fps)
		} else {
			fpsPlain = append(fpsPlain, fps)
			walls = append(walls, it.wall.Seconds())
		}
	}
	n := float64(max(len(traced), 1))
	modelOf := make(map[string]string, len(items))
	for _, it := range items {
		modelOf[it.Campaign.Key] = it.Model.String()
	}

	for _, m := range levels {
		prep := setup.byModel[m]
		set("golden."+m+".prep_s", prep, "s")
		set("golden."+m+".mcycles_per_s", ratio(float64(setup.cycles[m])/1e6, prep), "Mcycle/s")
	}
	set("xlevel.golden_speed_ratio", setup.ratio, "x")

	// Model layers, from the simulator decorator.
	agg := make(map[string]*layerStats)
	for _, m := range levels {
		agg[m] = &layerStats{}
	}
	var model time.Duration
	for _, it := range traced {
		for m, st := range it.layers {
			agg[m].add(st)
			model += st.modelTime()
		}
	}
	for _, m := range levels {
		st := agg[m]
		set(m+".restore.calls", float64(len(st.restore))/n, "count")
		set(m+".restore.p50_us", us(quantile(st.restore, 0.50)), "us")
		set(m+".restore.p99_us", us(quantile(st.restore, 0.99)), "us")
		set(m+".ff.mcycles", float64(st.ffCycles)/1e6/n, "Mcycle")
		set(m+".ff.s", st.ffTime.Seconds()/n, "s")
		set(m+".window.mcycles", float64(st.winCycles)/1e6/n, "Mcycle")
		set(m+".window.s", st.winTime.Seconds()/n, "s")
		set(m+".step_mcycles_per_s", ratio(float64(st.ffCycles+st.winCycles)/1e6, (st.ffTime+st.winTime).Seconds()), "Mcycle/s")
		set(m+".inject.calls", float64(st.injCalls)/n, "count")
		set(m+".inject.s", st.injTime.Seconds()/n, "s")
	}
	// Layers only one level reaches in these workloads: only microarch
	// campaigns hash (EarlyStop) and fork (LiveSnapshot); only RTL
	// replays snapshot (the lockstep ring).
	ma := agg["microarch"]
	set("microarch.hash.calls", float64(len(ma.hash))/n, "count")
	set("microarch.hash.p50_us", us(quantile(ma.hash, 0.50)), "us")
	set("microarch.hash.s", sum(ma.hash).Seconds()/n, "s")
	set("microarch.fork.calls", float64(ma.forks)/n, "count")
	rtl := agg["rtl"]
	set("rtl.snapshot.calls", float64(rtl.snapCalls)/n, "count")
	set("rtl.snapshot.s", rtl.snapTime.Seconds()/n, "s")
	set("rtl.batch.lockstep_s", rtl.lockTime.Seconds()/n, "s")
	set("rtl.batch.lockstep_mcycles", float64(rtl.lockCycles)/1e6/n, "Mcycle")
	set("rtl.batch.lane_injects", float64(rtl.laneInjects)/n, "count")
	set("rtl.batch.peels", float64(rtl.peels)/n, "count")

	// Engine accounting, from the campaign results.
	var planned, pruned, replays, converged int
	var laneRuns int
	var occupancy float64
	ff := map[string]float64{}
	var saved float64
	var busy time.Duration
	for _, it := range traced {
		busy += it.busy
		for key, res := range it.results {
			m := modelOf[key]
			ff[m] += float64(res.FastForwardCycles) / 1e6
			saved += float64(res.FastForwardSaved) / 1e6
			planned += len(res.Outcomes)
			pruned += res.PrunedRuns
			converged += res.ConvergedRuns
			replays += len(res.Outcomes) - res.PrunedRuns - res.ExtrapolatedRuns - res.OverheadRuns
			if runs := res.BatchedRuns + res.PeeledRuns; runs > 0 {
				laneRuns += runs
				occupancy += res.LaneOccupancy * float64(runs)
			}
		}
	}
	for _, m := range levels {
		set(m+".ff.engine_mcycles", ff[m]/n, "Mcycle")
	}
	set("microarch.ff.saved_mcycles", saved/n, "Mcycle")
	set("rtl.batch.occupancy", ratio(occupancy, float64(laneRuns)), "lanes")
	set("prune.pruned_frac", ratio(float64(pruned), float64(planned)), "fraction")
	set("engine.converged_frac", ratio(float64(converged), float64(replays)), "fraction")
	set("engine.busy_s", busy.Seconds()/n, "s")
	other := 0.0
	if busy > 0 {
		other = (busy - model).Seconds() / n
	}
	set("engine.other.s", other, "s")

	// Fleet layers.
	wire := newWireStats()
	var workerGolden time.Duration
	for _, it := range traced {
		if it.wire == nil {
			continue
		}
		workerGolden += it.golden
		for ep, ds := range it.wire.client {
			wire.client[ep] = append(wire.client[ep], ds...)
		}
		for ep, ds := range it.wire.server {
			wire.server[ep] = append(wire.server[ep], ds...)
		}
		wire.bytes += it.wire.bytes
		wire.idlePolls += it.wire.idlePolls
	}
	for _, ep := range endpoints {
		set("wire."+ep+".calls", float64(len(wire.client[ep]))/n, "count")
		set("wire."+ep+".p50_ms", ms64(quantile(wire.client[ep], 0.50)), "ms")
		set("wire."+ep+".p99_ms", ms64(quantile(wire.client[ep], 0.99)), "ms")
		set("coord."+ep+".p50_ms", ms64(quantile(wire.server[ep], 0.50)), "ms")
	}
	set("wire.bytes", float64(wire.bytes)/n, "B")
	set("wire.idle_polls", float64(wire.idlePolls)/n, "count")
	set("fleet.worker_golden_s", workerGolden.Seconds()/n, "s")
	overhead := 0.0
	if local != nil && len(walls) > 0 {
		fleet := median(walls)
		overhead = (fleet - local.wall.Seconds()) / fleet
	}
	set("fleet.overhead_frac", overhead, "fraction")

	// Runtime and tracing cost.
	var gcCPU, totalCPU float64
	var objects uint64
	var heapPeak float64
	for _, it := range traced {
		heapPeak = max(heapPeak, it.heapMiB)
		gcCPU += it.alloc.gcCPU
		totalCPU += it.alloc.totalCPU
		objects += it.alloc.allocObjects
	}
	set("runtime.gc_cpu_frac", ratio(gcCPU, totalCPU), "fraction")
	set("runtime.allocs_per_fault", ratio(float64(objects), float64(planned)), "count")
	set("runtime.heap_peak_mb", heapPeak, "MiB")
	set("trace.overhead_frac", 1-ratio(median(fpsTraced), median(fpsPlain)), "fraction")
	set("trace.faults_per_s", median(fpsTraced), "1/s")

	// The paper's accuracy result (paper-all only), exact at a seed.
	var rf, l1d float64
	if len(traced) > 0 {
		rf, l1d = traced[0].xlevel[0], traced[0].xlevel[1]
	}
	set("rf_xlevel_diff_pp", rf, "pp")
	set("l1d_xlevel_diff_pp", l1d, "pp")
	return ms
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
