package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/refsim"
)

// samplesPerCampaign is how many outcomes of every campaign the output
// check replays through the scalar engine.
const samplesPerCampaign = 2

// group is one golden-sharing group of a workload's matrix: the golden
// artifacts every member campaign replays against.
type group struct {
	name     string
	workload string
	model    core.Model
	opts     campaign.GoldenOptions

	prog    *asm.Program
	factory campaign.Factory
	golden  *campaign.Golden
	prep    []time.Duration // per set-up repetition
}

// groupsOf returns the matrix's golden groups in plan order, each with
// the union of its members' golden options, as campaign.Sweep merges
// them.
func groupsOf(items []core.MatrixItem) []*group {
	var out []*group
	byName := make(map[string]*group)
	for _, it := range items {
		g, ok := byName[it.Campaign.Group]
		if !ok {
			g = &group{name: it.Campaign.Group, workload: it.Workload, model: it.Model}
			byName[g.name] = g
			out = append(out, g)
		}
		o := campaign.GoldenOptionsFor(it.Campaign.Config)
		g.opts.SnapshotEvery, g.opts.SnapPolicy = o.SnapshotEvery, o.SnapPolicy
		g.opts.Timeline = g.opts.Timeline || o.Timeline
		g.opts.Lifetime = g.opts.Lifetime || o.Lifetime
		g.opts.HashEvery = max(g.opts.HashEvery, o.HashEvery)
	}
	return out
}

// setupTimes are the set-up medians over setupReps repetitions.
type setupTimes struct {
	total   float64            // seconds, all groups
	byModel map[string]float64 // seconds per model level
	cycles  map[string]uint64  // golden cycles per model level
	ratio   float64            // mean over benches of RTL ÷ microarch prep time
}

// measureSetup times, serially and from outside the engine, what a
// workload builds before its first replay: each group's program
// assembly plus campaign.PrepareGolden with its campaigns' golden
// options. The last repetition's artifacts back the output checks.
func measureSetup(groups []*group) (setupTimes, error) {
	var totals []float64
	for rep := 0; rep < setupReps; rep++ {
		var total time.Duration
		for _, g := range groups {
			w, err := bench.ByName(g.workload)
			if err != nil {
				return setupTimes{}, err
			}
			t0 := time.Now()
			prog, err := asm.Assemble(w.Name+".s", w.Source())
			if err != nil {
				return setupTimes{}, fmt.Errorf("assembling %s: %w", w.Name, err)
			}
			factory := core.Factory(g.model, prog, core.CampaignSetup())
			gold, err := campaign.PrepareGolden(factory, g.opts)
			if err != nil {
				return setupTimes{}, fmt.Errorf("golden %s: %w", g.name, err)
			}
			d := time.Since(t0)
			g.prog, g.factory, g.golden = prog, factory, gold
			g.prep = append(g.prep, d)
			total += d
		}
		totals = append(totals, total.Seconds())
	}
	st := setupTimes{total: median(totals), byModel: make(map[string]float64), cycles: make(map[string]uint64)}
	perBench := make(map[string]map[core.Model]float64)
	for _, g := range groups {
		var ps []float64
		for _, d := range g.prep {
			ps = append(ps, d.Seconds())
		}
		m := median(ps)
		st.byModel[g.model.String()] += m
		st.cycles[g.model.String()] += g.golden.Cycles
		if perBench[g.workload] == nil {
			perBench[g.workload] = make(map[core.Model]float64)
		}
		perBench[g.workload][g.model] += m
	}
	n := 0
	for _, pb := range perBench {
		if pb[core.ModelRTL] > 0 && pb[core.ModelMicroarch] > 0 {
			st.ratio += pb[core.ModelRTL] / pb[core.ModelMicroarch]
			n++
		}
	}
	if n > 0 {
		st.ratio /= float64(n)
	}
	return st, nil
}

// checkGoldens requires every golden run's program output to equal the
// architectural reference interpreter's.
func checkGoldens(groups []*group) []string {
	var bad []string
	for _, g := range groups {
		ref, err := refsim.New(g.prog)
		if err != nil {
			bad = append(bad, fmt.Sprintf("refsim %s: %v", g.workload, err))
			continue
		}
		if stop := ref.Run(1 << 32); stop != refsim.StopExit {
			bad = append(bad, fmt.Sprintf("refsim %s stopped with %v", g.workload, stop))
			continue
		}
		if string(ref.Output) != string(g.golden.Output) {
			bad = append(bad, fmt.Sprintf("golden %s output differs from refsim", g.name))
		}
	}
	return bad
}

// checkSamples replays a seeded sample of each campaign's outcomes
// through the scalar Golden.ReplayOne and requires the same class, and
// the same end cycle where the engine replayed the fault; every
// campaign must also report one outcome per planned fault. It returns
// the number of faults that failed and why.
func checkSamples(items []core.MatrixItem, groups []*group, results map[string]*campaign.Result, seed int64) (int, []string) {
	byName := make(map[string]*group)
	for _, g := range groups {
		byName[g.name] = g
	}
	sims := make(map[string]campaign.Simulator)
	var failed int
	var bad []string
	for i, it := range items {
		key, cfg := it.Campaign.Key, it.Campaign.Config
		res := results[key]
		if res == nil || len(res.Outcomes) != cfg.Injections {
			failed += cfg.Injections
			bad = append(bad, fmt.Sprintf("%s: missing outcomes", key))
			continue
		}
		g := byName[it.Campaign.Group]
		sim, ok := sims[g.name]
		if !ok {
			var err error
			if sim, err = g.factory(); err != nil {
				failed += samplesPerCampaign
				bad = append(bad, fmt.Sprintf("%s: %v", key, err))
				continue
			}
			sims[g.name] = sim
		}
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		for _, k := range rng.Perm(len(res.Outcomes))[:min(samplesPerCampaign, len(res.Outcomes))] {
			got := res.Outcomes[k]
			want, err := g.golden.ReplayOne(sim, got.Spec, cfg)
			n := len(bad)
			switch {
			case err != nil:
				bad = append(bad, fmt.Sprintf("%s #%d: scalar replay: %v", key, k, err))
			case want.Class != got.Class:
				bad = append(bad, fmt.Sprintf("%s #%d: class %v, scalar replay %v", key, k, got.Class, want.Class))
			case replayed(got) && want.EndCycle != got.EndCycle:
				bad = append(bad, fmt.Sprintf("%s #%d: end cycle %d, scalar replay %d", key, k, got.EndCycle, want.EndCycle))
			}
			failed += len(bad) - n
		}
	}
	return failed, bad
}

// replayed reports whether the engine simulated the outcome (rather
// than classifying it from the golden trace or a class representative).
func replayed(oc campaign.RunOutcome) bool {
	return !oc.Pruned && !oc.Extrapolated && !oc.Overhead
}

// digest fingerprints an iteration's outcome stream in matrix order:
// each outcome's fault, class, end cycle and how it was classified.
func digest(items []core.MatrixItem, results map[string]*campaign.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, it := range items {
		h.Write([]byte(it.Campaign.Key))
		res := results[it.Campaign.Key]
		if res == nil {
			put(^uint64(0))
			continue
		}
		for _, oc := range res.Outcomes {
			s := oc.Spec
			put(uint64(s.Target))
			put(uint64(s.Bit))
			put(s.Cycle)
			put(uint64(s.Model))
			put(uint64(oc.Class))
			put(oc.EndCycle)
			var flags uint64
			if oc.Converged {
				flags |= 1
			}
			if oc.Pruned {
				flags |= 2
			}
			put(flags)
		}
	}
	return h.Sum64()
}
