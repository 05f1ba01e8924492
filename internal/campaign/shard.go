package campaign

// Shard execution: the engine state behind Run, exported so a
// distributed coordinator (internal/distrib) can dispatch replays to
// remote worker processes and merge their outcomes deterministically.
//
// A Planned campaign couples one golden run's artifacts with a
// validated config, the lazy fault plan, the pruning pre-classifier and
// the in-order outcome collector. NextReplay is the producer Run's
// dispatch loop uses — it resolves pruning verdicts producer-side and
// stops issuing once the sequential estimator converges — and Deliver
// is the consumer path every replayed outcome flows through (class
// fanout, sequential stopping, checkpoint streaming). Because the
// coordinator drives exactly this producer/consumer pair and the merge
// consumes outcomes strictly in fault-index order, a campaign sharded
// over any number of worker processes produces classification counts,
// outcome lists and report tables byte-identical to the same campaign
// run single-process.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
)

// GoldenOptionsFor derives the golden-artifact options one campaign
// needs: the snapshot schedule, the L1D timeline under AdvanceToUse,
// state hashes under EarlyStop and the lifetime trace under Prune. Both
// Run and a distributed worker preparing its local golden copy use it,
// so the two golden runs capture identical artifacts.
func GoldenOptionsFor(cfg Config) GoldenOptions {
	return goldenOptionsFor(cfg)
}

// Fingerprint identifies the golden run's observable behavior (cycle
// count, pinout volume, program output). A distributed worker compares
// it against the coordinator's before replaying a shard: a mismatch
// means the two processes did not simulate the same golden run (version
// or workload skew) and the shard must not execute.
func (g *Golden) Fingerprint() uint64 { return g.fingerprint() }

// Planned is one campaign planned against a golden run: the validated
// config, lazy fault plan, pruning state and streaming outcome
// collector. It is safe for concurrent use: NextReplay and Deliver may
// be called from any goroutine (Run's worker pool, a coordinator's HTTP
// handlers).
type Planned struct {
	mu  sync.Mutex
	cfg Config
	g   *Golden
	fp  uint64 // g.fingerprint(), stamped into checkpoint records
	pl  *lazyPlan
	seq *seqStop
	pr  *pruner

	nextIdx  int
	stopHint int // checkpointed stopping index, -1 when none

	// Injection-free estimate attached to Result under Config.AVF,
	// computed at plan time (zero replays).
	avfInfo *AVFInfo

	// Replay accounting the executor's workers fold in (see fold).
	stats ReplayStats

	key      string // checkpoint key: the sweep key or OpenCheckpoint's
	ckpt     *shardWriter
	resumed  int
	finished bool
}

// PlanCampaign validates cfg and plans it against this golden run,
// returning the campaign's dispatchable state. The golden run must have
// been prepared with (at least) GoldenOptionsFor(cfg)'s artifacts.
func (g *Golden) PlanCampaign(cfg Config) (*Planned, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pl, err := g.planner(cfg)
	if err != nil {
		return nil, err
	}
	seq, err := newSeqStop(cfg)
	if err != nil {
		return nil, err
	}
	pr, err := newPruner(g, pl, cfg)
	if err != nil {
		return nil, err
	}
	var info *AVFInfo
	if cfg.AVF {
		if info, err = buildAVFInfo(g, pl, cfg); err != nil {
			return nil, err
		}
		if cfg.AVFPrior {
			seedAVFPrior(seq, info, cfg)
		}
	}
	return &Planned{cfg: cfg, g: g, fp: g.fingerprint(), pl: pl, seq: seq, pr: pr, stopHint: -1, avfInfo: info}, nil
}

// Config returns the validated campaign config (defaults filled).
func (p *Planned) Config() Config { return p.cfg }

// Injections returns the planned sample size.
func (p *Planned) Injections() int { return p.pl.n }

// GoldenFingerprint returns the backing golden run's fingerprint — the
// value a shard carries so remote workers can verify golden identity.
func (p *Planned) GoldenFingerprint() uint64 { return p.fp }

// Spec returns planned injection i — the coordinator's source of truth
// when rebuilding a remote outcome for delivery.
func (p *Planned) Spec(i int) fault.Spec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pl.spec(i)
}

// NextReplay returns the next plan index that needs an actual replay,
// advancing past indices the pruning pre-classifier resolves
// injection-lessly (their synthetic outcomes are delivered internally)
// and past indices already delivered (checkpoint resume). It returns
// ok=false once the plan is exhausted, the sequential stop has
// triggered, or a checkpointed stopping index is reached — terminally:
// a false return never becomes true again.
func (p *Planned) NextReplay() (idx int, spec fault.Spec, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	limit := p.pl.n
	if p.stopHint >= 0 && p.stopHint < limit {
		limit = p.stopHint
	}
	for p.nextIdx < limit && !p.seq.stopped() {
		i := p.nextIdx
		p.nextIdx++
		if p.seq.done(i) {
			continue
		}
		s := p.pl.spec(i)
		// Protection overhead faults (check bits / checker logic) exist
		// only in the scheme model: classify producer-side, never
		// dispatch them to a simulator.
		if oc, ok := p.pl.overheadOutcome(s); ok {
			p.seq.deliver(i, oc)
			continue
		}
		switch act, oc := p.pr.decide(i, s); act {
		case pruneSynthetic:
			p.seq.deliver(i, oc)
			continue
		case pruneSkip:
			continue
		}
		return i, s, true
	}
	return 0, fault.Spec{}, false
}

// Deliver records one replayed outcome: the pruning state fans the
// representative's outcome over its equivalence class, the sequential
// collector consumes everything in plan order, and — when a checkpoint
// is attached — the replayed outcome is streamed to its shard exactly
// as a sweep's pool workers stream theirs. Duplicate deliveries of one index
// are ignored, so a re-issued lease whose original worker was merely
// slow (not dead) stays harmless.
func (p *Planned) Deliver(idx int, oc RunOutcome) error { return p.deliver(nil, idx, oc) }

// deliver is Deliver streaming to ckpt — a sweep pool worker's shard —
// when given one, else to the campaign's own attached checkpoint.
func (p *Planned) deliver(ckpt *shardWriter, idx int, oc RunOutcome) error {
	// Stamp the class weight, deliver the representative and fan its
	// outcome out over the extrapolated members; only the stamped
	// representative reaches the shard (extrapolation is re-derived on
	// resume). Every engine's outcomes pass here, so the fanout
	// invariant has exactly one owner.
	members := p.pr.afterReplay(idx, &oc)
	p.seq.deliver(idx, oc)
	for _, m := range members {
		p.seq.deliver(m.idx, m.oc)
	}
	if ckpt != nil {
		return ckpt.write(p.key, idx, oc, p.cfg, p.fp)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ckpt != nil {
		return p.ckpt.write(p.key, idx, oc, p.cfg, p.fp)
	}
	return nil
}

// Done reports whether outcome idx has been delivered.
func (p *Planned) Done(idx int) bool { return p.seq.done(idx) }

// Delivered reports how many outcomes have been delivered so far —
// synthetic, extrapolated and replayed alike — the campaign's live
// progress numerator (Injections is the denominator; a sequential stop
// may finish the campaign below it).
func (p *Planned) Delivered() int { return p.seq.count() }

// Stopped reports whether the sequential stop has triggered: no further
// replays are needed beyond those already issued.
func (p *Planned) Stopped() bool { return p.seq.stopped() }

// Resumed reports how many replays were restored from checkpoint shards
// by OpenCheckpoint instead of re-executed.
func (p *Planned) Resumed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resumed
}

// exec binds the campaign to the replay pool of the given width: its
// producer, collector and stop flag feed the executor, and fold is the
// accounting sink.
func (p *Planned) exec(factory Factory, workers int) *execCampaign {
	c := newExecCampaign(p.g, p.cfg, factory, p.pl.n, workers)
	c.label, c.next, c.deliver, c.stop, c.fold = p.key, p.NextReplay, p.deliver, p.Stopped, p.fold
	return c
}

// fold adds one worker's replay accounting to the campaign — the one
// method every engine's counters reach a campaign through.
func (p *Planned) fold(s ReplayStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.add(s)
}

// Result aggregates the campaign once every needed outcome has been
// delivered. elapsed is the replay phase's attributed wall time.
func (p *Planned) Result(elapsed time.Duration) (*Result, error) {
	res, err := aggregate(p.cfg, p.g, p.pl, p.seq, p.pr, elapsed)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	res.BatchedRuns, res.PeeledRuns = s.Batched, s.Peeled
	if s.Groups > 0 {
		res.LaneOccupancy = float64(s.LaneSum) / float64(s.Groups)
	}
	if s.Cursor {
		// aggregate filled FastForwardCycles with the stream-order
		// cost; swap in what the cursors actually stepped. A cursor
		// may overshoot the counted prefix (stop-decision races), so
		// the saving is clamped at zero.
		if stream := res.FastForwardCycles; stream > s.FastForward {
			res.FastForwardSaved = stream - s.FastForward
		}
		res.FastForwardCycles = s.FastForward
	}
	res.AVF = p.avfInfo
	return res, nil
}

// OpenCheckpoint loads matching records for this campaign (keyed by
// key) from dir's JSONL shards into the collector — validating each
// against the freshly derived plan, config and golden fingerprint
// exactly as Sweep's resume does — then attaches a streaming writer so
// every subsequently delivered replay is durable. Call before
// dispatching.
func (p *Planned) OpenCheckpoint(dir, key string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ckpt != nil {
		return fmt.Errorf("campaign: checkpoint already open")
	}
	p.key = key
	n, err := loadCheckpoints(dir, []*Planned{p})
	if err != nil {
		return err
	}
	p.resumed = n
	w, err := newShardWriter(dir, sanitizeShardName(key))
	if err != nil {
		return err
	}
	p.ckpt = w
	return nil
}

// CloseCheckpoint flushes the streaming writer and appends the
// campaign's sequential stopping record (when one was decided this
// run), so a coordinator restart resumes without re-deriving the
// stopping index. Safe to call without an open checkpoint.
func (p *Planned) CloseCheckpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ckpt == nil {
		return nil
	}
	w := p.ckpt
	p.ckpt = nil
	if r, ok := p.stopRecord(); ok {
		if err := w.encode(r); err != nil {
			w.close()
			return err
		}
	}
	return w.close()
}
