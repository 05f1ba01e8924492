package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/fault"
)

// ErrInterrupted is returned by Sweep when SweepOptions.Stop fires
// before the matrix completes: in-flight replays drained, checkpoint
// shards flushed and closed, results discarded. A later sweep over the
// same matrix and checkpoint directory resumes from the flushed shards.
var ErrInterrupted = errors.New("campaign: interrupted before completion")

// SweepCampaign is one campaign of a sweep matrix.
type SweepCampaign struct {
	// Key uniquely identifies the campaign within the sweep (e.g.
	// "fig1/GeFIN/qsort"); it names the campaign in Results and in
	// checkpoint records.
	Key string

	// Group is the golden-sharing key. Campaigns with the same Group
	// MUST be built from behaviourally identical factories (same
	// model, program and setup): the sweep runs ONE golden run per
	// group and shares its snapshots, pinout trace, program output,
	// L1D timeline and cycle count across every member.
	Group string

	Factory Factory
	Config  Config
}

// GoldenInfo summarises one shared golden run — the measured cost TABLE
// II reports, exposed so callers never re-simulate a golden run the
// sweep already executed.
type GoldenInfo struct {
	Group     string
	Cycles    uint64
	Txns      int
	Elapsed   time.Duration
	Snapshots int
}

// SweepResult aggregates a sweep.
type SweepResult struct {
	// Results maps each campaign Key to its result. Per-campaign
	// Elapsed/AvgSecPerRun are attributed busy time (the sum of that
	// campaign's replay wall times across the shared pool), not the
	// sweep's wall clock; replays resumed from checkpoints contribute
	// nothing, so a fully resumed campaign reports both as zero.
	Results map[string]*Result

	// Goldens maps each golden-sharing Group to its measured run. If
	// several snapshot schedules split one Group into multiple golden
	// runs, the first-planned schedule's run is recorded. Golden runs
	// execute concurrently on the pool, so Elapsed values include
	// whatever contention the machine exhibits under parallel load.
	Goldens map[string]GoldenInfo

	// GoldenRuns counts golden runs actually executed — the sweep's
	// whole point is that this is #groups, not #campaigns.
	GoldenRuns int

	// Resumed counts replays restored from checkpoint shards instead
	// of re-executed.
	Resumed int

	Elapsed time.Duration
}

// SweepOptions parameterises the shared replay pool.
type SweepOptions struct {
	// Workers bounds global sweep parallelism; zero uses GOMAXPROCS.
	// Per-campaign Config.Workers is ignored: all replays of all
	// campaigns go through this one pool, so stragglers of one
	// campaign never idle workers that could run another's replays.
	Workers int

	// CheckpointDir enables streaming per-run outcome checkpoints:
	// every completed replay is appended to a JSONL shard in this
	// directory, and a later sweep over the same matrix resumes by
	// loading matching records instead of re-simulating. Empty
	// disables checkpointing.
	CheckpointDir string

	// Stop, when non-nil, requests a graceful early exit: once the
	// channel is closed the producer stops issuing replays, in-flight
	// replays drain, checkpoint shards are flushed and closed, and
	// Sweep returns ErrInterrupted. The cmd entry points wire
	// SIGINT/SIGTERM to it so an interrupted local campaign resumes
	// cleanly from its checkpoints.
	Stop <-chan struct{}
}

// groupKey derives the internal golden-sharing key: the caller's Group
// plus the normalised snapshot schedule AND placement policy, so
// artifact sharing can never pair a campaign with snapshots taken on a
// different schedule (the determinism contract is "bit-identical to
// standalone Run", and snapshot placement feeds the per-replay base
// accounting even though classifications are placement-independent).
// The replay schedule (Config.Sched) is deliberately absent: it changes
// execution order only, so cursor and stream campaigns share goldens.
func groupKey(c SweepCampaign) string {
	every := c.Config.SnapshotEvery
	if every == 0 {
		every = defaultSnapshotEvery
	}
	return fmt.Sprintf("%s/snap%d/%s", c.Group, every, c.Config.SnapPolicy)
}

type sweepGroup struct {
	name    string // caller-visible Group
	factory Factory
	opts    GoldenOptions
	golden  *Golden
	members []int // campaign indices
}

// Sweep plans a matrix of campaigns, executes one golden run per
// (Group, snapshot schedule), shares its artifacts across every member
// campaign, and dispatches ALL replays through one global worker pool
// with per-worker simulator reuse. Results are bit-identical to calling
// Run per campaign with the same seeds: the fault plan depends only on
// seed + golden cycle count, which sharing preserves.
func Sweep(campaigns []SweepCampaign, opt SweepOptions) (*SweepResult, error) {
	if len(campaigns) == 0 {
		return nil, fmt.Errorf("campaign: empty sweep")
	}
	if opt.Workers <= 0 {
		opt.Workers = defaultWorkers()
	}
	// Work on a copy: validation fills config defaults in place, and the
	// caller's matrix must not change under it.
	campaigns = append([]SweepCampaign(nil), campaigns...)
	seen := make(map[string]bool, len(campaigns))
	for i := range campaigns {
		c := &campaigns[i]
		if c.Key == "" || c.Group == "" || c.Factory == nil {
			return nil, fmt.Errorf("campaign: sweep campaign %d needs Key, Group and Factory", i)
		}
		if seen[c.Key] {
			return nil, fmt.Errorf("campaign: duplicate sweep key %q", c.Key)
		}
		seen[c.Key] = true
		if err := c.Config.validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Key, err)
		}
	}

	start := time.Now()

	// ------------------------------------------- golden phase (1/group)
	// A group's golden run records the union of its members' artifact
	// needs: recording is pure observation, so it serves them all.
	groups := make(map[string]*sweepGroup)
	var order []string
	for i, c := range campaigns {
		k := groupKey(c)
		gr, ok := groups[k]
		if !ok {
			gr = &sweepGroup{name: c.Group, factory: c.Factory, opts: goldenOptionsFor(c.Config)}
			groups[k] = gr
			order = append(order, k)
		}
		gr.opts = gr.opts.union(goldenOptionsFor(c.Config))
		gr.members = append(gr.members, i)
	}
	// Groups are independent, so golden runs go through the pool too —
	// with the default bench list the RTL goldens dominate this phase,
	// and running them sequentially would idle every other worker.
	err := dispatchJobs(min(opt.Workers, len(order)), order, func(_ int, keys <-chan string) error {
		for k := range keys {
			gr := groups[k]
			g, err := PrepareGolden(gr.factory, gr.opts)
			if err != nil {
				return fmt.Errorf("campaign: golden run for group %q: %w", gr.name, err)
			}
			gr.golden = g
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	goldens := make(map[string]GoldenInfo, len(groups))
	for _, k := range order {
		gr := groups[k]
		if _, ok := goldens[gr.name]; ok {
			continue // first-planned snapshot schedule wins for a split Group
		}
		g := gr.golden
		goldens[gr.name] = GoldenInfo{
			Group: gr.name, Cycles: g.Cycles, Txns: g.Txns,
			Elapsed: g.Elapsed, Snapshots: g.Snapshots(),
		}
	}

	// ---------------------------------------------------------- plans
	// One Planned per campaign: lazy fault plan (a sequentially stopped
	// campaign never materialises the specs it does not run), pruning
	// state and streaming collector deciding its deterministic stopping
	// index.
	plans := make([]*Planned, len(campaigns))
	for i, c := range campaigns {
		p, err := groups[groupKey(c)].golden.PlanCampaign(c.Config)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Key, err)
		}
		p.key = c.Key
		plans[i] = p
	}
	resumed := 0
	if opt.CheckpointDir != "" {
		if resumed, err = loadCheckpoints(opt.CheckpointDir, plans); err != nil {
			return nil, err
		}
	}

	// -------------------------------------- replay phase (global pool)
	// Group-major dispatch keeps each worker's simulators hot and at
	// most a few groups live at once.
	var camps []*execCampaign
	for _, k := range order {
		for _, i := range groups[k].members {
			camps = append(camps, plans[i].exec(campaigns[i].Factory, opt.Workers))
		}
	}
	interrupted, err := runPool(opt.Workers, camps, opt.CheckpointDir, opt.Stop)
	if err != nil {
		return nil, err
	}
	// Record each campaign's stopping state so a resumed sweep neither
	// re-derives it from scratch nor re-executes the skipped tail.
	if opt.CheckpointDir != "" {
		if err := writeStopRecords(opt.CheckpointDir, plans); err != nil {
			return nil, err
		}
	}
	if interrupted {
		// Every completed replay is durable in its (now closed) shard;
		// partial results would be misleading, so none are returned.
		return nil, ErrInterrupted
	}

	// ------------------------------------------------------ aggregation
	sr := &SweepResult{
		Results:    make(map[string]*Result, len(campaigns)),
		Goldens:    goldens,
		GoldenRuns: len(groups),
		Resumed:    resumed,
		Elapsed:    time.Since(start),
	}
	for i, c := range campaigns {
		p := plans[i]
		res, err := p.Result(p.stats.Busy)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Key, err)
		}
		// Busy time only accrues on replays executed this sweep, so the
		// per-run average must use that count, not the total: a fully
		// resumed campaign reports 0, never a bogus tiny throughput.
		res.AvgSecPerRun = 0
		if p.stats.Executed > 0 {
			res.AvgSecPerRun = p.stats.Busy.Seconds() / float64(p.stats.Executed)
		}
		sr.Results[c.Key] = res
	}
	return sr, nil
}

// ---------------------------------------------------------- checkpoints

// ckptRecord is one streamed replay outcome (or, with Kind "stop", a
// campaign's sequential stopping state). The planned spec, the
// classification-affecting config (window, observation point, compare
// mode, adaptive-engine switch — which the spec does not depend on) AND
// a fingerprint of the golden run are embedded so resume can
// self-validate: a record is only accepted when the sweep's freshly
// derived plan, config and golden all agree with it, which makes stale
// shards (different seed, window, matrix, or simulator/workload
// behavior) harmless. Stop records additionally pin the stopping
// parameters, so a changed margin or confidence re-derives the index
// instead of trusting a stale one.
type ckptRecord struct {
	Campaign string `json:"campaign"`
	Index    int    `json:"index"`
	Target   int    `json:"target"`
	Bit      int    `json:"bit"`
	Cycle    uint64 `json:"cycle"`
	Model    int    `json:"model"`
	Width    int    `json:"width"`
	Stuck    int    `json:"stuck"`
	Span     uint64 `json:"span"`
	Window   uint64 `json:"window"`
	Obs      int    `json:"obs"`
	Compare  int    `json:"compare"`
	Golden   uint64 `json:"golden"` // Golden.fingerprint() of the backing run
	Class    int    `json:"class"`
	EndCycle uint64 `json:"endCycle"`

	// Adaptive-engine fields. Records written before the adaptive
	// engine existed decode to the zero values, which only ever match
	// campaigns with the engine off.
	Kind      string  `json:"kind,omitempty"` // "" = outcome, ckptKindStop = stopping state
	EarlyStop bool    `json:"estop,omitempty"`
	Converged bool    `json:"conv,omitempty"`
	TargetErr float64 `json:"terr,omitempty"`
	MinRuns   int     `json:"minRuns,omitempty"`
	Conf      float64 `json:"conf,omitempty"`

	// AvfPrior pins stop records only: seeding the estimator with the
	// AVF prediction moves the stopping index, so a stop record decided
	// with the prior must not cap a prior-less resume (and vice versa).
	// Outcome records are unaffected — the prior never touches classes.
	AvfPrior bool `json:"avfPrior,omitempty"`

	// Pruning fields: the campaign's prune mode (a mode change makes
	// every shard stale — pruning alters which indices replay and how
	// outcomes weigh) and, on class representatives, the represented
	// class size so a resumed campaign re-weights its estimator
	// identically. Only replayed outcomes reach shards; dead-pruned and
	// extrapolated outcomes are re-derived from the golden trace.
	Prune int `json:"prune,omitempty"`
	CSize int `json:"csize,omitempty"`

	// Protect pins the campaign's protection plan (canonical string
	// form, empty = unprotected), mirroring the fault-model staleness
	// rule: protection changes the planned bit space and every
	// classification, so records from an unprotected run (including all
	// pre-protection shards, which decode to "") must never merge into a
	// protected campaign, nor vice versa. Overhead-region outcomes never
	// reach shards; they are re-synthesised from the scheme model on
	// resume.
	Protect string `json:"protect,omitempty"`
}

// ckptKindStop marks a record carrying a campaign's sequential stopping
// index (in Index) instead of a replay outcome.
const ckptKindStop = "stop"

// spec reconstructs the planned injection the record describes. Records
// written before the fault-model fields existed decode to Model 0 and
// never equal a freshly planned spec (whose model is always set), so
// pre-model shards are discarded rather than misread as transients.
func (r ckptRecord) spec() fault.Spec {
	return fault.Spec{
		Target: fault.Target(r.Target), Bit: r.Bit, Cycle: r.Cycle,
		Model: fault.Model(r.Model), Width: r.Width, Stuck: r.Stuck, Span: r.Span,
	}
}

const shardPrefix = "shard-"

type shardWriter struct {
	f   *os.File
	buf *bufio.Writer
	enc *json.Encoder
}

func newShardWriter(dir, name string) (*shardWriter, error) {
	f, err := os.OpenFile(
		filepath.Join(dir, fmt.Sprintf("%s%s.jsonl", shardPrefix, name)),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint shard: %w", err)
	}
	buf := bufio.NewWriter(f)
	return &shardWriter{f: f, buf: buf, enc: json.NewEncoder(buf)}, nil
}

func (w *shardWriter) encode(r ckptRecord) error {
	if err := w.enc.Encode(r); err != nil {
		return fmt.Errorf("campaign: checkpoint write: %w", err)
	}
	return nil
}

func (w *shardWriter) write(key string, idx int, oc RunOutcome, cfg Config, golden uint64) error {
	return w.encode(ckptRecord{
		Campaign: key, Index: idx,
		Target: int(oc.Spec.Target), Bit: oc.Spec.Bit, Cycle: oc.Spec.Cycle,
		Model: int(oc.Spec.Model), Width: oc.Spec.Width,
		Stuck: oc.Spec.Stuck, Span: oc.Spec.Span,
		Window: cfg.Window, Obs: int(cfg.Obs), Compare: int(cfg.CompareMode),
		Golden: golden,
		Class:  int(oc.Class), EndCycle: oc.EndCycle,
		EarlyStop: cfg.EarlyStop, Converged: oc.Converged,
		Prune: int(cfg.Prune), CSize: oc.ClassSize,
		Protect: cfg.Protect,
	})
}

// writeStopRecords appends one stopping-state record per sequentially
// stopped campaign, so a resumed sweep skips the saved tail outright
// instead of re-deriving (or worse, re-simulating) it.
func writeStopRecords(dir string, plans []*Planned) (retErr error) {
	var w *shardWriter
	defer func() {
		if w != nil {
			if cerr := w.close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
		}
	}()
	for _, p := range plans {
		r, ok := p.stopRecord()
		if !ok {
			continue
		}
		if w == nil {
			var err error
			if w, err = newShardWriter(dir, ckptKindStop); err != nil {
				return err
			}
		}
		if err := w.encode(r); err != nil {
			return err
		}
	}
	return nil
}

// stopRecord builds the campaign's sequential-stopping record, reporting
// false when no stop was decided or a loaded stop record already pins
// it (so resumes do not grow the stop shard with duplicates). The spec
// at the last counted index pins the fault-plan identity (seed, target,
// model parameters, distribution): a stop record from a different plan
// must not cap a resumed campaign, exactly as outcome records
// self-validate.
func (p *Planned) stopRecord() (ckptRecord, bool) {
	idx := p.seq.stopIndex()
	if idx <= 0 || idx == p.stopHint {
		return ckptRecord{}, false
	}
	cfg, last := p.cfg, p.pl.spec(idx-1)
	return ckptRecord{
		Kind: ckptKindStop, Campaign: p.key, Index: idx,
		Target: int(last.Target), Bit: last.Bit, Cycle: last.Cycle,
		Model: int(last.Model), Width: last.Width,
		Stuck: last.Stuck, Span: last.Span,
		Window: cfg.Window, Obs: int(cfg.Obs), Compare: int(cfg.CompareMode),
		Golden: p.fp, EarlyStop: cfg.EarlyStop,
		TargetErr: cfg.TargetError, MinRuns: cfg.MinRuns, Conf: cfg.Confidence,
		AvfPrior: cfg.AVFPrior,
		Prune:    int(cfg.Prune),
		Protect:  cfg.Protect,
	}, true
}

// sanitizeShardName maps an arbitrary campaign key onto a filesystem-
// safe shard name (the coordinator keys shards by campaign, not by
// worker number as Sweep does).
func sanitizeShardName(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, key)
}

// close flushes and closes the shard; a failure here means completed
// records may not be durable, so it must reach the caller.
func (w *shardWriter) close() error {
	ferr := w.buf.Flush()
	cerr := w.f.Close()
	if ferr != nil {
		return fmt.Errorf("campaign: checkpoint flush: %w", ferr)
	}
	if cerr != nil {
		return fmt.Errorf("campaign: checkpoint close: %w", cerr)
	}
	return nil
}

// loadCheckpoints creates dir if needed and replays its JSONL shards
// into the plans' collectors in one pass, returning how many replays
// were resumed. Records that do not match a campaign key, its planned
// spec or its classification config are skipped silently. Delivery
// order does not matter: each collector's estimator consumes outcomes
// strictly in plan order, so a resumed campaign re-derives the exact
// stopping index the original run chose. Matching stop records
// short-circuit that by capping the producer at the recorded index.
func loadCheckpoints(dir string, plans []*Planned) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("campaign: checkpoint dir: %w", err)
	}
	byKey := make(map[string]*Planned, len(plans))
	for _, p := range plans {
		byKey[p.key] = p
	}
	resumed := 0
	err := forEachCkptRecord(dir, func(r ckptRecord) {
		if p, ok := byKey[r.Campaign]; ok && p.applyCkptRecord(r) {
			resumed++
		}
	})
	// Shards record class representatives only; re-derive the
	// extrapolated member outcomes of every resumed representative.
	for _, p := range plans {
		p.pr.resumedFanout(p.seq)
	}
	return resumed, err
}

// forEachCkptRecord walks dir's JSONL shards in name order, decoding
// every well-formed record (a torn final line of an interrupted run is
// skipped silently).
func forEachCkptRecord(dir string, fn func(ckptRecord)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("campaign: checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), shardPrefix) && strings.HasSuffix(e.Name(), ".jsonl") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("campaign: checkpoint shard: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var r ckptRecord
			if json.Unmarshal([]byte(line), &r) != nil {
				continue
			}
			fn(r)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return fmt.Errorf("campaign: checkpoint shard %s: %w", name, err)
		}
	}
	return nil
}

// applyCkptRecord validates one decoded record against the campaign's
// freshly derived plan, classification config and golden fingerprint
// and, when everything agrees, delivers it (outcome records) or pins
// the stopping index (stop records). Mismatching records are skipped
// silently — stale shards are harmless by construction. Reports whether
// a not-yet-delivered outcome was resumed.
func (p *Planned) applyCkptRecord(r ckptRecord) bool {
	cfg, pl, seq := p.cfg, p.pl, p.seq
	if r.Window != cfg.Window || r.Obs != int(cfg.Obs) || r.Compare != int(cfg.CompareMode) {
		return false // same plan but a different classification config
	}
	if r.Golden != p.fp {
		return false // simulator or workload behavior changed under the plan
	}
	if r.EarlyStop != cfg.EarlyStop {
		return false // convergence exits change EndCycle accounting
	}
	if r.Prune != int(cfg.Prune) {
		return false // pruning changes which indices replay and their weights
	}
	if r.Protect != cfg.Protect {
		// Protection changes the planned bit space and every class:
		// pre-protection (or differently protected) shards are stale for
		// a protected campaign, and protected shards for an unprotected
		// one — the fault-model staleness rule extended to schemes.
		return false
	}
	if r.Kind == ckptKindStop {
		if r.TargetErr != cfg.TargetError || r.MinRuns != cfg.MinRuns || r.Conf != cfg.Confidence {
			return false // different stopping rule: re-derive the index
		}
		if r.AvfPrior != cfg.AVFPrior {
			return false // the prior moves the stopping index
		}
		if r.Index <= 0 || r.Index > pl.n {
			return false
		}
		if pl.spec(r.Index-1) != r.spec() {
			return false // stop record from a different fault plan
		}
		p.stopHint = r.Index
		return false
	}
	if r.Index < 0 || r.Index >= pl.n {
		return false
	}
	spec := pl.spec(r.Index)
	if spec != r.spec() {
		return false // stale shard from a different plan or fault model
	}
	fresh := !seq.done(r.Index)
	seq.deliver(r.Index, RunOutcome{
		Spec: spec, Class: Class(r.Class), EndCycle: r.EndCycle,
		Converged: r.Converged, ClassSize: r.CSize,
	})
	return fresh
}
