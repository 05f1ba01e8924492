package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fault"
	"repro/internal/obs"
)

// width is every workload's replay pool width: the sweep and campaign
// pools run width workers, and the fleet runs width single-worker
// distrib.Workers. It is fixed so runs compare across hosts.
const width = 2

// Per-campaign injection counts, sized so one iteration is long enough
// to average over its fault mix (see README.md).
const (
	paperInjections    = 10
	windowInjections   = 120
	convergeInjections = 20
)

// paperWindows is cmd/paper's ablation-window sweep.
var paperWindows = []uint64{100, 500, 2_000, 20_000, 0}

// maBenches and maTargets span the microarch workloads' matrix.
var (
	maBenches = []string{"qsort", "caes", "stringsearch"}
	maTargets = []fault.Target{fault.TargetRF, fault.TargetL1D}
)

// iterOut is what one workload iteration hands back for checking and
// accounting.
type iterOut struct {
	wall    time.Duration               // the user-visible campaign time
	results map[string]*campaign.Result // keyed by MatrixItem campaign key
	busy    time.Duration               // replay pool busy time
	xlevel  [2]float64                  // paper-all: Fig. 1 and Fig. 2 mean |GeFIN − RTL|, pp
	wire    *wireStats                  // fleet-window traced runs
	golden  time.Duration               // fleet-window traced runs: worker golden prep
}

// workload is one benchmark workload: a fault matrix made from the seed
// and the way one iteration executes it. README.md gives the reason
// each one exists.
type workload struct {
	name string

	// matrix plans the campaigns an iteration runs.
	matrix func(seed int64) ([]core.MatrixItem, error)

	// run executes one iteration. tr is nil on untraced iterations; a
	// traced iteration routes every simulator factory through it.
	run func(items []core.MatrixItem, seed int64, tr *tracer) (iterOut, error)
}

var workloads = []*workload{
	{
		name:   "paper-all",
		matrix: paperMatrix,
		run:    runPaperAll,
	},
	{
		name: "ma-window",
		matrix: func(seed int64) ([]core.MatrixItem, error) {
			return maMatrix(seed, windowConfig), nil
		},
		run: runSweep,
	},
	{
		name: "ma-converge",
		matrix: func(seed int64) ([]core.MatrixItem, error) {
			return maMatrix(seed, convergeConfig), nil
		},
		run: runConverge,
	},
	{
		name: "fleet-window",
		matrix: func(seed int64) ([]core.MatrixItem, error) {
			return maMatrix(seed, windowConfig), nil
		},
		run: runFleet,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// paperParams is `paper -all -benches qsort,sha -window 500` at the
// benchmark's injection count and pool width.
func paperParams(seed int64) core.Params {
	p := core.DefaultParams()
	p.Injections = paperInjections
	p.Seed = seed
	p.Window = 500
	p.Workers = width
	p.Benches = []string{"qsort", "sha"}
	return p
}

var errPlanned = errors.New("matrix planned")

// paperMatrix captures RunAll's campaign matrix through a runner that
// records it and stops before any simulation.
func paperMatrix(seed int64) ([]core.MatrixItem, error) {
	p := paperParams(seed)
	var items []core.MatrixItem
	p.Runner = func(its []core.MatrixItem, _ campaign.SweepOptions) (*campaign.SweepResult, error) {
		items = its
		return nil, errPlanned
	}
	if _, err := p.RunAll(paperWindows); !errors.Is(err, errPlanned) {
		return nil, fmt.Errorf("planning paper -all: %v", err)
	}
	return items, nil
}

func runPaperAll(items []core.MatrixItem, seed int64, tr *tracer) (iterOut, error) {
	p := paperParams(seed)
	if tr != nil {
		p.Runner = func(its []core.MatrixItem, opt campaign.SweepOptions) (*campaign.SweepResult, error) {
			camps := make([]campaign.SweepCampaign, len(its))
			for i, it := range its {
				camps[i] = it.Campaign
				camps[i].Factory = tr.wrap(it.Model.String(), it.Campaign.Factory)
			}
			return campaign.Sweep(camps, opt)
		}
	}
	t0 := time.Now()
	all, err := p.RunAll(paperWindows)
	if err != nil {
		return iterOut{}, err
	}
	out := iterOut{wall: time.Since(t0), results: make(map[string]*campaign.Result)}
	for _, fig := range []*core.FigureResult{all.Fig1, all.Fig2, all.Fig3, all.AblationWindow, all.AblationLatches} {
		for _, s := range fig.Series {
			for bn, res := range s.Results {
				out.results[fig.Name+"/"+s.Label+"/"+bn] = res
				out.busy += res.Elapsed
			}
		}
	}
	out.xlevel = [2]float64{all.Fig1.Diff.MeanAbsDiff * 100, all.Fig2.Diff.MeanAbsDiff * 100}
	return out, nil
}

func windowConfig(seed int64, t fault.Target) campaign.Config {
	return campaign.Config{
		Injections: windowInjections, Seed: seed, Target: t,
		Obs: campaign.ObsPinout, Window: 500, Sched: campaign.SchedStream,
		Workers: width,
	}
}

func convergeConfig(seed int64, t fault.Target) campaign.Config {
	return campaign.Config{
		Injections: convergeInjections, Seed: seed, Target: t,
		Obs: campaign.ObsSOP, EarlyStop: true, Sched: campaign.SchedCursor,
		Prune: campaign.PruneDead, Workers: width,
	}
}

// maMatrix is {qsort, caes, stringsearch} × {RF, L1D} on the microarch
// model under one campaign configuration.
func maMatrix(seed int64, cfg func(int64, fault.Target) campaign.Config) []core.MatrixItem {
	s := core.CampaignSetup()
	var items []core.MatrixItem
	for _, bn := range maBenches {
		for _, t := range maTargets {
			items = append(items, core.MatrixItem{
				Campaign: campaign.SweepCampaign{
					Key:    fmt.Sprintf("%s/%v", bn, t),
					Group:  fmt.Sprintf("%v/%s/%s", core.ModelMicroarch, s.Name, bn),
					Config: cfg(seed, t),
				},
				Workload: bn, Model: core.ModelMicroarch, Setup: s.Name,
			})
		}
	}
	return items
}

// factoryFor builds the item's simulator factory from its workload's
// (cached) program, traced when tr is non-nil.
func factoryFor(it core.MatrixItem, tr *tracer) (campaign.Factory, error) {
	w, err := bench.ByName(it.Workload)
	if err != nil {
		return nil, err
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	f := core.Factory(it.Model, prog, core.CampaignSetup())
	if tr != nil {
		f = tr.wrap(it.Model.String(), f)
	}
	return f, nil
}

// runSweep runs the matrix as one campaign.Sweep over a width-worker
// pool (ma-window).
func runSweep(items []core.MatrixItem, _ int64, tr *tracer) (iterOut, error) {
	camps := make([]campaign.SweepCampaign, len(items))
	for i, it := range items {
		f, err := factoryFor(it, tr)
		if err != nil {
			return iterOut{}, err
		}
		camps[i] = it.Campaign
		camps[i].Factory = f
	}
	t0 := time.Now()
	sr, err := campaign.Sweep(camps, campaign.SweepOptions{Workers: width})
	if err != nil {
		return iterOut{}, err
	}
	out := iterOut{wall: time.Since(t0), results: sr.Results}
	for _, res := range sr.Results {
		out.busy += res.Elapsed
	}
	return out, nil
}

// runConverge runs each campaign on its own through campaign.Run, the
// faultsim driver: core.RunCampaign untraced, the same call on a traced
// factory otherwise.
func runConverge(items []core.MatrixItem, _ int64, tr *tracer) (iterOut, error) {
	out := iterOut{results: make(map[string]*campaign.Result, len(items))}
	var factories []campaign.Factory
	if tr != nil {
		for _, it := range items {
			f, err := factoryFor(it, tr)
			if err != nil {
				return iterOut{}, err
			}
			factories = append(factories, f)
		}
	}
	t0 := time.Now()
	for i, it := range items {
		var res *campaign.Result
		var err error
		if tr == nil {
			res, err = core.RunCampaign(it.Workload, it.Model, core.CampaignSetup(), it.Campaign.Config)
		} else {
			res, err = campaign.Run(factories[i], it.Campaign.Config)
		}
		if err != nil {
			return iterOut{}, fmt.Errorf("%s: %w", it.Campaign.Key, err)
		}
		out.results[it.Campaign.Key] = res
		// campaign.Run's private pool: its replay phase occupies every
		// worker for the phase's wall time.
		out.busy += time.Duration(res.Config.Workers) * res.Elapsed
	}
	out.wall = time.Since(t0)
	return out, nil
}

// runFleet submits the matrix through distrib.Client.SweepRunner to a
// fresh in-process coordinator on a loopback httptest server, served by
// width distrib.Workers of one replay worker each. Poll intervals keep
// their package defaults. A fresh fleet per iteration keeps the
// coordinator's deterministic campaign IDs from resolving to the
// previous iteration's finished campaigns.
func runFleet(items []core.MatrixItem, _ int64, tr *tracer) (out iterOut, err error) {
	coord := distrib.NewCoordinator(distrib.CoordinatorOptions{})
	var ws *wireStats
	var h http.Handler = coord.Handler()
	var golden0 time.Duration
	if tr != nil {
		ws = newWireStats()
		h = distrib.LogRequests(h, ws.serverSide)
		obs.Enable() // the workers' golden-prep histogram
		defer obs.Disable()
		golden0 = workerGoldenTime()
	}
	srv := httptest.NewServer(h)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		srv.Close()
		if cerr := coord.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("coordinator close: %w", cerr)
		}
	}()
	for i := 0; i < width; i++ {
		opt := distrib.WorkerOptions{Coordinator: srv.URL, ID: fmt.Sprintf("bench-w%d", i), Workers: 1}
		if ws != nil {
			opt.HTTP = ws.httpClient()
		}
		w := distrib.NewWorker(opt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx) // returns ctx.Err() once cancelled
		}()
	}
	client := distrib.NewClient(srv.URL)
	if ws != nil {
		client.HTTP = ws.httpClient()
	}
	t0 := time.Now()
	sr, err := client.SweepRunner()(items, campaign.SweepOptions{})
	if err != nil {
		return iterOut{}, err
	}
	out = iterOut{wall: time.Since(t0), results: sr.Results, wire: ws}
	if ws != nil {
		out.golden = workerGoldenTime() - golden0
	}
	return out, nil
}
