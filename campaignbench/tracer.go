package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/lifetime"
	"repro/internal/refsim"
	"repro/internal/trace"
)

// The tracer is a campaign.Simulator decorator that timestamps replay
// phase edges — never individual Steps — so the traced run attributes
// the worker pool's time to the model-side layers:
//
//	Restore                      → restore (per call)
//	Restore → first Flip/Force   → fast-forward (cycles and time)
//	Flip/Force                   → inject (per call)
//	inject → last edge of window → faulty-window stepping, minus the
//	                               StateHash and Snapshot time inside it
//	StateHash                    → convergence hashing (per call)
//	Snapshot / LiveSnapshot      → snapshot / cursor fork
//
// A window's last edge is its last Run return, StateHash or StopReason
// call, so classification after the window is left to the engine's
// residual. Under the cursor schedule the golden cursor never injects:
// its fast-forward runs from the first Cycles() call after a fork to
// the next fork. Batch-capable (RTL) instances expose a wrapped LaneSet
// whose first activation after a fast-forward opens a lockstep segment
// and whose last retirement closes it.

const (
	phaseIdle = iota
	phaseFF
	phaseWindow
	phaseLockstep
)

// layerStats is one traced instance's (or one level's summed) phase
// accounting.
type layerStats struct {
	restore []time.Duration // per Restore call
	hash    []time.Duration // per StateHash call

	snapCalls int
	snapTime  time.Duration
	forks     int

	ffCycles  uint64
	ffTime    time.Duration
	winCycles uint64
	winTime   time.Duration
	injCalls  int
	injTime   time.Duration

	lockCycles  uint64
	lockTime    time.Duration
	laneInjects int
	peels       int
}

func (s *layerStats) add(o *layerStats) {
	s.restore = append(s.restore, o.restore...)
	s.hash = append(s.hash, o.hash...)
	s.snapCalls += o.snapCalls
	s.snapTime += o.snapTime
	s.forks += o.forks
	s.ffCycles += o.ffCycles
	s.ffTime += o.ffTime
	s.winCycles += o.winCycles
	s.winTime += o.winTime
	s.injCalls += o.injCalls
	s.injTime += o.injTime
	s.lockCycles += o.lockCycles
	s.lockTime += o.lockTime
	s.laneInjects += o.laneInjects
	s.peels += o.peels
}

// modelTime is the pool time this instance spent inside the model.
func (s *layerStats) modelTime() time.Duration {
	return sum(s.restore) + sum(s.hash) + s.snapTime + s.ffTime + s.winTime + s.injTime + s.lockTime
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// tracer owns every traced instance built through its wrapped
// factories. Instances are single-goroutine (each engine worker owns
// its simulators), so only registration locks; collect must run after
// the engine has returned.
type tracer struct {
	mu   sync.Mutex
	sims []*tracedSim
}

// wrap returns a factory whose instances are traced under level
// ("microarch" or "rtl").
func (t *tracer) wrap(level string, f campaign.Factory) campaign.Factory {
	return func() (campaign.Simulator, error) {
		inner, err := f()
		if err != nil {
			return nil, err
		}
		s := &tracedSim{inner: inner, level: level}
		t.mu.Lock()
		t.sims = append(t.sims, s)
		t.mu.Unlock()
		return expose(s), nil
	}
}

// collect closes every open window, sums the replay instances' stats
// per level and forgets the instances. Golden-run instances, the only
// ones never restored, are left out: their cost is golden prep.
func (t *tracer) collect() map[string]*layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*layerStats)
	for _, s := range t.sims {
		s.finish()
		if len(s.st.restore) == 0 {
			continue
		}
		agg, ok := out[s.level]
		if !ok {
			agg = &layerStats{}
			out[s.level] = agg
		}
		agg.add(&s.st)
	}
	t.sims = nil
	return out
}

// expose returns s behind a type implementing campaign.LiveSnapshotter
// and campaign.BatchCapable exactly when the wrapped model does: the
// engines probe both by type assertion, and a decorator that hid
// either would trace a different program (cursor forks falling back to
// Snapshot, RTL replay falling back to scalar).
func expose(s *tracedSim) campaign.Simulator {
	_, live := s.inner.(campaign.LiveSnapshotter)
	_, batch := s.inner.(campaign.BatchCapable)
	switch {
	case live && batch:
		return liveBatchSim{s}
	case live:
		return liveSim{s}
	case batch:
		return batchSim{s}
	}
	return s
}

type liveSim struct{ *tracedSim }

func (s liveSim) LiveSnapshot() campaign.Snapshot { return s.liveSnapshot() }

type batchSim struct{ *tracedSim }

func (s batchSim) BatchLanes(t fault.Target) (campaign.LaneSet, bool) { return s.batchLanes(t) }

type liveBatchSim struct{ *tracedSim }

func (s liveBatchSim) LiveSnapshot() campaign.Snapshot { return s.liveSnapshot() }
func (s liveBatchSim) BatchLanes(t fault.Target) (campaign.LaneSet, bool) {
	return s.batchLanes(t)
}

// traced unwraps any of the exposed decorator types.
type traced interface{ traced() *tracedSim }

func (s *tracedSim) traced() *tracedSim { return s }

// tracedSim is the decorator proper.
type tracedSim struct {
	inner campaign.Simulator
	level string

	phase      int
	start      time.Time     // open phase's start
	startCycle uint64        // model cycle at the phase start
	excl       time.Duration // hash/snapshot/lane-inject time inside the phase
	last       time.Time     // last edge inside the open window
	lastCycle  uint64
	armed      bool // cursor: the next Cycles() call starts a fast-forward
	active     int  // live batch lanes

	st layerStats
}

func (s *tracedSim) open(phase int, at time.Time) {
	s.phase, s.start, s.startCycle, s.excl = phase, at, s.inner.Cycles(), 0
	s.last, s.lastCycle = time.Time{}, s.startCycle
}

// mark records an edge inside the open window.
func (s *tracedSim) mark(at time.Time) {
	if s.phase == phaseWindow {
		s.last, s.lastCycle = at, s.inner.Cycles()
	}
}

// closePhase ends the open phase at now (a fast-forward or lockstep
// segment) or at the window's last edge.
func (s *tracedSim) closePhase(now time.Time) {
	switch s.phase {
	case phaseFF:
		// A segment that stepped nothing is bookkeeping between
		// replays, not fast-forward.
		if c := s.inner.Cycles(); c > s.startCycle {
			s.st.ffCycles += c - s.startCycle
			s.st.ffTime += now.Sub(s.start) - s.excl
		}
	case phaseWindow:
		end, endCycle := s.last, s.lastCycle
		if end.IsZero() {
			end, endCycle = now, s.inner.Cycles()
		}
		s.st.winCycles += endCycle - s.startCycle
		s.st.winTime += end.Sub(s.start) - s.excl
	case phaseLockstep:
		s.st.lockCycles += s.inner.Cycles() - s.startCycle
		s.st.lockTime += now.Sub(s.start) - s.excl
	}
	s.phase = phaseIdle
}

// finish closes a window left open by the instance's last replay at
// its last edge; any other open segment was cut short and is dropped.
func (s *tracedSim) finish() {
	if s.phase == phaseWindow && !s.last.IsZero() {
		s.closePhase(s.last)
	}
	s.phase = phaseIdle
}

// inject runs one fault application (a Flip, a Force or a peeled
// lane's diff) as the fast-forward → window edge.
func (s *tracedSim) inject(apply func() error) error {
	t0 := time.Now()
	if s.phase != phaseWindow {
		s.closePhase(t0)
	}
	err := apply()
	t1 := time.Now()
	s.st.injCalls++
	s.st.injTime += t1.Sub(t0)
	if s.phase == phaseWindow {
		s.excl += t1.Sub(t0) // a burst's further bits or a re-asserted stuck bit
		s.mark(t1)
	} else {
		s.open(phaseWindow, t1)
	}
	return err
}

func (s *tracedSim) Restore(snap campaign.Snapshot) {
	t0 := time.Now()
	s.closePhase(t0)
	s.inner.Restore(snap)
	t1 := time.Now()
	s.st.restore = append(s.st.restore, t1.Sub(t0))
	s.open(phaseFF, t1)
}

func (s *tracedSim) Flip(t fault.Target, bit int) error {
	return s.inject(func() error { return s.inner.Flip(t, bit) })
}

func (s *tracedSim) Force(t fault.Target, bit, v int) error {
	return s.inject(func() error { return s.inner.Force(t, bit, v) })
}

func (s *tracedSim) Run(maxCycles uint64) refsim.StopReason {
	r := s.inner.Run(maxCycles)
	s.mark(time.Now())
	return r
}

func (s *tracedSim) StateHash() uint64 {
	t0 := time.Now()
	h := s.inner.StateHash()
	t1 := time.Now()
	s.st.hash = append(s.st.hash, t1.Sub(t0))
	if s.phase != phaseIdle {
		s.excl += t1.Sub(t0)
	}
	s.mark(t1)
	return h
}

func (s *tracedSim) Snapshot() campaign.Snapshot {
	t0 := time.Now()
	snap := s.inner.Snapshot()
	t1 := time.Now()
	s.st.snapCalls++
	s.st.snapTime += t1.Sub(t0)
	if s.phase != phaseIdle {
		s.excl += t1.Sub(t0)
	}
	s.mark(t1)
	return snap
}

func (s *tracedSim) StopReason() refsim.StopReason {
	if s.phase == phaseWindow {
		s.mark(time.Now())
	}
	return s.inner.StopReason()
}

func (s *tracedSim) Cycles() uint64 {
	if s.armed {
		s.armed = false
		s.open(phaseFF, time.Now())
	}
	return s.inner.Cycles()
}

func (s *tracedSim) liveSnapshot() campaign.Snapshot {
	s.closePhase(time.Now())
	s.st.forks++
	s.armed = true
	return s.inner.(campaign.LiveSnapshotter).LiveSnapshot()
}

func (s *tracedSim) batchLanes(t fault.Target) (campaign.LaneSet, bool) {
	ls, ok := s.inner.(campaign.BatchCapable).BatchLanes(t)
	if !ok {
		return nil, false
	}
	return &tracedLanes{inner: ls, owner: s}, true
}

func (s *tracedSim) Step() bool                             { return s.inner.Step() }
func (s *tracedSim) Output() []byte                         { return s.inner.Output() }
func (s *tracedSim) SetPinout(p *trace.Pinout)              { s.inner.SetPinout(p) }
func (s *tracedSim) Bits(t fault.Target) int                { return s.inner.Bits(t) }
func (s *tracedSim) SetL1DAccessHook(fn func(set, way int)) { s.inner.SetL1DAccessHook(fn) }
func (s *tracedSim) L1DLineOfBit(bit int) (int, int)        { return s.inner.L1DLineOfBit(bit) }
func (s *tracedSim) SetLifetime(rec *lifetime.Recorder)     { s.inner.SetLifetime(rec) }

// tracedLanes counts lane injections and peels and brackets the owner's
// lockstep segments: the first activation after a fast-forward opens
// one, the retirement of the last live lane closes it.
type tracedLanes struct {
	inner campaign.LaneSet
	owner *tracedSim

	// peelAt is when the current tick's peel work began: peeled lanes
	// finish on the scalar instance inside the owner's lockstep
	// segment, so that time is excluded from lockstep as it is spent.
	peelAt time.Time
}

func (l *tracedLanes) Activate(lane int) {
	o := l.owner
	if o.phase != phaseLockstep {
		now := time.Now()
		o.closePhase(now)
		o.open(phaseLockstep, now)
	}
	o.active++
	l.inner.Activate(lane)
}

func (l *tracedLanes) Retire(lane int) {
	l.inner.Retire(lane)
	o := l.owner
	if !l.peelAt.IsZero() {
		now := time.Now()
		o.excl += now.Sub(l.peelAt)
		l.peelAt = now
	}
	if o.active > 0 {
		o.active--
		if o.active == 0 && o.phase == phaseLockstep {
			now := time.Now()
			o.closePhase(now)
			o.open(phaseFF, now) // the cursor schedule walks on into the next group
		}
	}
}

func (l *tracedLanes) laneInject(apply func() error) error {
	t0 := time.Now()
	err := apply()
	d := time.Since(t0)
	o := l.owner
	o.st.laneInjects++
	o.st.injTime += d
	if o.phase != phaseIdle {
		o.excl += d
	}
	return err
}

func (l *tracedLanes) Flip(lane, bit int) error {
	return l.laneInject(func() error { return l.inner.Flip(lane, bit) })
}

func (l *tracedLanes) Force(lane, bit, v int) error {
	return l.laneInject(func() error { return l.inner.Force(lane, bit, v) })
}

// ApplyPeelDiff hands the wrapped LaneSet the undecorated scalar
// simulator (the diff is applied through its Flip primitive) and
// brackets the application as the scalar instance's inject edge.
func (l *tracedLanes) ApplyPeelDiff(lane int, sim campaign.Simulator) error {
	l.owner.st.peels++
	t, ok := sim.(traced)
	if !ok {
		return l.inner.ApplyPeelDiff(lane, sim)
	}
	ts := t.traced()
	return ts.inject(func() error { return l.inner.ApplyPeelDiff(lane, ts.inner) })
}

func (l *tracedLanes) Clean(lane int) bool { return l.inner.Clean(lane) }
func (l *tracedLanes) BeginTick() {
	l.peelAt = time.Time{}
	l.inner.BeginTick()
}

func (l *tracedLanes) Peeled() uint64 {
	p := l.inner.Peeled()
	if p != 0 {
		l.peelAt = time.Now()
	}
	return p
}

func (l *tracedLanes) Detach() { l.inner.Detach() }

// quantile returns the q-quantile of ds (nearest rank), 0 when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}
