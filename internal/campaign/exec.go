package campaign

// The replay executor: the one place a campaign's replays are bound to
// an engine and run. engineFor picks the engine for a config — the
// bit-parallel lockstep engine (BatchReplayer) where lanes are enabled
// and the model has a lane surface for the target, the injection-
// ordered cursor engine (CursorReplayer) under SchedCursor, the scalar
// stream engine (scalarReplayer) otherwise — and runPool drives
// whichever was picked on one worker pool, folding every engine's
// counters and busy time into one ReplayStats per campaign. Run, Sweep,
// the distributed worker (through Golden.ReplayJobs) and the runsim
// probe all execute here, so an engine is added, timed or fixed in one
// place. All three engines share the Replay(next, deliver) shape and
// classify through finishRun, and outcomes reach the in-order
// collector in whatever order they finish, so the engine choice changes
// throughput only, never results.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// engine names a replay engine.
type engine int

const (
	engineScalar engine = iota
	engineCursor
	engineBatch
)

// engineFor picks the replay engine for a campaign. Batching applies
// when lanes are enabled and the model exposes a lane tracker for the
// target (probed on the golden instance, detached immediately); the
// cursor engine serves the remaining SchedCursor campaigns. It is the
// only place the choice is made.
func engineFor(g *Golden, cfg Config) engine {
	if cfg.Lanes > 1 {
		if bc, ok := g.sim.(BatchCapable); ok {
			if ls, ok := bc.BatchLanes(cfg.Target); ok {
				ls.Detach()
				return engineBatch
			}
		}
	}
	if cfg.Sched == SchedCursor {
		return engineCursor
	}
	return engineScalar
}

// chunkFor is how many replays one pool job carries for a campaign of n
// planned injections on a pool of workers: one for the scalar engine;
// for the cursor and batch engines an even share of the plan, so a
// lone campaign still spreads over every worker, capped at one engine
// pull (the material its cycle sort clusters) and, for batching,
// floored at one full lane group.
func chunkFor(e engine, cfg Config, n, workers int) int {
	share := (n + workers - 1) / workers
	switch e {
	case engineBatch:
		return min(max(share, cfg.Lanes), cfg.Lanes*batchPull)
	case engineCursor:
		return min(max(share, 1), cursorPull)
	}
	return 1
}

// replayer is one worker's engine instance: Replay drains next and
// delivers every outcome; stats reports the engine's counters since
// construction.
type replayer interface {
	Replay(next func() (int, fault.Spec, bool), deliver func(int, RunOutcome) error) error
	stats() ReplayStats
}

// ReplayStats is the replay accounting the executor folds per campaign
// over every worker's engine.
type ReplayStats struct {
	// Executed counts outcomes the engines delivered; Busy sums the
	// worker time spent producing them.
	Executed int
	Busy     time.Duration

	// Bit-parallel engine: replays retired in lockstep, replays peeled
	// to the scalar tail, and lane groups with their summed occupancy.
	Batched, Peeled, Groups, LaneSum int

	// FastForward is the golden catch-up cycles cursor-scheduled engines
	// actually stepped; Cursor marks that one ran, so a result reports
	// that spend instead of the stream-order cost.
	FastForward uint64
	Cursor      bool
}

func (s *ReplayStats) add(o ReplayStats) {
	s.Executed += o.Executed
	s.Busy += o.Busy
	s.Batched += o.Batched
	s.Peeled += o.Peeled
	s.Groups += o.Groups
	s.LaneSum += o.LaneSum
	s.FastForward += o.FastForward
	s.Cursor = s.Cursor || o.Cursor
}

// scalarReplayer is the stream engine: every replay restores the golden
// snapshot nearest its injection instant, fast-forwards to it, injects
// and runs the observation window on one simulator.
type scalarReplayer struct {
	g   *Golden
	cfg Config
	sim Simulator
	buf replayBuf
}

// Replay runs next's replays one by one in pull order.
func (r *scalarReplayer) Replay(next func() (int, fault.Spec, bool), deliver func(int, RunOutcome) error) error {
	for {
		idx, spec, ok := next()
		if !ok {
			return nil
		}
		var t0 time.Time
		if obs.Enabled() {
			t0 = time.Now()
		}
		oc, err := r.one(spec)
		if err != nil {
			return err
		}
		if !t0.IsZero() {
			obsReplaySeconds.Observe(time.Since(t0).Seconds())
		}
		if err := deliver(idx, oc); err != nil {
			return err
		}
	}
}

func (r *scalarReplayer) stats() ReplayStats { return ReplayStats{} }

// one replays a single faulty simulation and classifies it.
func (r *scalarReplayer) one(spec fault.Spec) (RunOutcome, error) {
	sim := r.sim
	base := nearestSnap(r.g.snaps, spec.Cycle)
	sim.Restore(base.snap)
	pin := &r.buf.pin
	pin.Reset()
	sim.SetPinout(pin)

	// Replay up to the injection instant (identical to golden).
	for sim.Cycles() < spec.Cycle {
		if !sim.Step() {
			return RunOutcome{}, fmt.Errorf("campaign: replay stopped at %d before injection at %d (%v)",
				sim.Cycles(), spec.Cycle, sim.StopReason())
		}
	}
	if err := applyFault(sim, spec); err != nil {
		return RunOutcome{}, err
	}
	return finishRun(sim, r.g, spec, r.cfg, base.cycle, pin)
}

// ReplayOne replays a single planned injection against this golden run
// on the scalar engine and classifies it — the public entry to the
// engine's hottest path, used by probe tooling and benchmarks. sim must
// come from the same factory as the golden run.
func (g *Golden) ReplayOne(sim Simulator, spec fault.Spec, cfg Config) (RunOutcome, error) {
	if err := cfg.validate(); err != nil {
		return RunOutcome{}, err
	}
	r := scalarReplayer{g: g, cfg: cfg, sim: sim}
	return r.one(spec)
}

// ReplayJobs replays n planned injections of one campaign against this
// golden run through the executor: the engine engineFor picks for cfg,
// up to workers goroutines, simulators drawn from factory. next yields
// each replay's plan index and spec; its calls are serialised, so it
// may be stateful. deliver receives every outcome, from any worker, in
// completion order. It is the executor's entry for
// drivers holding their own job lists — a distributed worker's leased
// shard, the runsim probe — and returns the engines' folded accounting.
func (g *Golden) ReplayJobs(factory Factory, cfg Config, workers, n int,
	next func() (int, fault.Spec, bool), deliver func(int, RunOutcome) error) (ReplayStats, error) {

	if err := cfg.validate(); err != nil {
		return ReplayStats{}, err
	}
	workers = max(min(workers, n), 1)
	var (
		mu    sync.Mutex
		total ReplayStats
	)
	c := newExecCampaign(g, cfg, factory, n, workers)
	c.next = next
	c.deliver = func(_ *shardWriter, idx int, oc RunOutcome) error { return deliver(idx, oc) }
	c.fold = func(s ReplayStats) {
		mu.Lock()
		total.add(s)
		mu.Unlock()
	}
	_, err := runPool(workers, []*execCampaign{c}, "", nil)
	return total, err
}

// execCampaign is one campaign as the pool sees it.
type execCampaign struct {
	g       *Golden
	cfg     Config
	factory Factory
	engine  engine
	chunk   int    // replays per pool job (chunkFor)
	label   string // error prefix (the sweep key), empty for none

	// next is the campaign's producer, called only under the pool's
	// dispatch lock; deliver routes an outcome to the collector and,
	// when the pool worker holds one, its checkpoint shard; stop (optional)
	// reports a decided sequential stop; fold receives a worker's
	// accounting when it moves off the campaign.
	next    func() (int, fault.Spec, bool)
	deliver func(ckpt *shardWriter, idx int, oc RunOutcome) error
	stop    func() bool
	fold    func(ReplayStats)
}

// newExecCampaign binds a campaign of n planned injections to a pool
// of workers: the engine engineFor picks for cfg and the job size
// chunkFor gives it. The caller wires the producer and sinks.
func newExecCampaign(g *Golden, cfg Config, factory Factory, n, workers int) *execCampaign {
	e := engineFor(g, cfg)
	return &execCampaign{g: g, cfg: cfg, factory: factory, engine: e, chunk: chunkFor(e, cfg, n, workers)}
}

func (c *execCampaign) wrap(err error) error {
	if err == nil || c.label == "" {
		return err
	}
	return fmt.Errorf("%s: %w", c.label, err)
}

// poolJob is one unit of pool work: a chunk of one campaign's replays.
type poolJob struct {
	c     *execCampaign
	specs []pulledSpec
}

// runPool executes camps' replays on one pool of workers goroutines.
// Jobs are dispatched campaign by campaign in the order given — callers
// pass group-major order, so each worker sees a non-decreasing sequence
// of golden runs — and dispatch moves on the moment a campaign's plan
// is exhausted or its sequential stop fires, so a stopped campaign
// frees the pool for the rest. Workers pull their own jobs under one
// dispatch lock, so every producer call is serialised and no replay
// waits on a goroutine hand-off. With ckptDir set every worker streams
// the outcomes it produces to its own shard. Once stop closes, dispatch
// ends and interrupted reports it; the first worker error ends
// dispatch, halts every engine at its next replay boundary and is
// returned.
func runPool(workers int, camps []*execCampaign, ckptDir string, stop <-chan struct{}) (interrupted bool, err error) {
	var (
		mu     sync.Mutex // guards ci, interrupted, err and every producer call
		ci     int
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	next := func() (poolJob, bool) {
		mu.Lock()
		defer mu.Unlock()
		for ci < len(camps) && !failed.Load() {
			if stop != nil {
				select {
				case <-stop:
					interrupted = true
					return poolJob{}, false
				default:
				}
			}
			j := poolJob{c: camps[ci]}
			for len(j.specs) < j.c.chunk {
				idx, spec, ok := j.c.next()
				if !ok {
					break
				}
				j.specs = append(j.specs, pulledSpec{idx: idx, spec: spec})
			}
			if len(j.specs) > 0 {
				return j, true
			}
			ci++
		}
		return poolJob{}, false
	}
	work := func(id int) (retErr error) {
		w := &poolWorker{failed: &failed}
		defer w.fold()
		if ckptDir != "" {
			var err error
			if w.ckpt, err = newShardWriter(ckptDir, fmt.Sprintf("%03d", id)); err != nil {
				return err
			}
			defer func() {
				if cerr := w.ckpt.close(); cerr != nil && retErr == nil {
					retErr = cerr
				}
			}()
		}
		for {
			j, ok := next()
			if !ok {
				return nil
			}
			if err := w.run(j); err != nil {
				failed.Store(true)
				return err
			}
		}
	}
	for id := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if werr := work(id); werr != nil {
				failed.Store(true)
				mu.Lock()
				if err == nil {
					err = werr
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return interrupted, err
}

// poolWorker is one pool goroutine's engine state. Its simulators are
// reused across every campaign of one golden run; its engine instance
// is rebuilt whenever the campaign changes.
type poolWorker struct {
	failed *atomic.Bool
	ckpt   *shardWriter
	golden *Golden // the golden run sims were built for
	sims   []Simulator
	cur    *execCampaign // the campaign rep serves
	rep    replayer
	acc    ReplayStats // cur's executed count and busy time so far
}

// run executes one job on the engine bound to its campaign.
func (w *poolWorker) run(j poolJob) error {
	c := j.c
	if c != w.cur {
		w.fold()
		if err := w.bind(c); err != nil {
			return c.wrap(err)
		}
	}
	k := 0
	next := func() (int, fault.Spec, bool) {
		if k >= len(j.specs) || w.failed.Load() {
			return 0, fault.Spec{}, false
		}
		k++
		return j.specs[k-1].idx, j.specs[k-1].spec, true
	}
	deliver := func(idx int, oc RunOutcome) error {
		w.acc.Executed++
		return c.deliver(w.ckpt, idx, oc)
	}
	t0 := time.Now()
	err := w.rep.Replay(next, deliver)
	d := time.Since(t0)
	w.acc.Busy += d
	obsBusySeconds.Add(d.Seconds())
	return c.wrap(err)
}

// bind builds c's engine on the worker's simulators, (re)building them
// when the golden run changed.
func (w *poolWorker) bind(c *execCampaign) error {
	if w.golden != c.g {
		w.golden, w.sims = c.g, nil
	}
	need := 1
	if c.engine != engineScalar {
		need = 2 // batch: golden + peel instances; cursor: cursor + replay
	}
	for len(w.sims) < need {
		sim, err := c.factory()
		if err != nil {
			return fmt.Errorf("worker simulator: %w", err)
		}
		w.sims = append(w.sims, sim)
	}
	switch c.engine {
	case engineBatch:
		br := NewBatchReplayer(c.g, c.cfg, w.sims[0], w.sims[1])
		if br == nil {
			return fmt.Errorf("campaign: batch replay unavailable on a worker instance")
		}
		w.rep = br
	case engineCursor:
		cr := NewCursorReplayer(c.g, c.cfg, w.sims[0], w.sims[1])
		cr.Stop = func() bool { return w.failed.Load() || c.stop != nil && c.stop() }
		w.rep = cr
	default:
		w.rep = &scalarReplayer{g: c.g, cfg: c.cfg, sim: w.sims[0]}
	}
	w.cur = c
	return nil
}

// fold hands the current campaign the worker's accounting — the one
// place engine counters reach a campaign — and releases the engine.
func (w *poolWorker) fold() {
	if w.cur == nil {
		return
	}
	s := w.rep.stats()
	s.add(w.acc)
	w.cur.fold(s)
	if br, ok := w.rep.(*BatchReplayer); ok {
		br.Close()
	}
	w.cur, w.rep, w.acc = nil, nil, ReplayStats{}
}
