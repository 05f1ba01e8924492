// Command campaignbench is the repository's benchmark: it runs one of
// four fault-injection workloads through the public campaign, core and
// distrib APIs for a fixed number of seconds, checks every outcome, and
// prints its metrics as one JSON object on the last line of stdout.
//
//	campaignbench --workload ma-window --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced iterations and reports the per-layer breakdown.
// See README.md for the metrics, the workloads and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// setupReps is how many times a run times the golden set-up; setup_s is
// the median.
const setupReps = 5

func main() {
	wlName := flag.String("workload", "", "workload: paper-all, ma-window, ma-converge, fleet-window")
	seed := flag.Int64("seed", 1, "seed of the fault plans")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceOn := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	wl, err := workloadByName(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(2)
	}
	if err := run(wl, *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
}

// iteration is one measured execution of a workload.
type iteration struct {
	iterOut
	items   []core.MatrixItem
	seed    int64
	traced  bool
	planned int
	digest  uint64
	alloc   runtimeDelta
	rssMiB  float64 // peak resident set during the iteration
	heapMiB float64 // peak live heap during the iteration
	layers  map[string]*layerStats
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// subSeed is the fault-plan seed of iteration k of a run: every
// iteration draws a fresh fault sample, so a run's median averages over
// fault mixes instead of timing one mix repeatedly.
func subSeed(seed int64, k int) int64 { return seed*1_000_000 + int64(k) }

func run(wl *workload, seed int64, seconds time.Duration, traced bool) error {
	items0, err := wl.matrix(subSeed(seed, 0))
	if err != nil {
		return err
	}
	printHost(wl, seed, traced, items0)
	fmt.Println("caches: every golden run and replay starts from reset, so simulated caches start empty")

	groups := groupsOf(items0)
	setup, err := measureSetup(groups)
	if err != nil {
		return err
	}
	fmt.Printf("setup: %d golden groups, median %.4fs over %d serial preparations\n", len(groups), setup.total, setupReps)
	var failed int
	var notes []string
	fail := func(n int, format string, args ...any) {
		failed += n
		notes = append(notes, fmt.Sprintf(format, args...))
	}
	for _, bad := range checkGoldens(groups) {
		fail(1, "%s", bad)
	}

	// The first iteration of a process is the slowest (cold heap, lazy
	// program assembly); it is run and discarded. It replays iteration
	// 0's plan, so its digest must match iteration 0's.
	warm, err := wl.run(items0, subSeed(seed, 0), nil)
	if err != nil {
		return fmt.Errorf("warm-up iteration: %w", err)
	}
	warmDigest := digest(items0, warm.results)

	// A traced run alternates untraced and traced iterations on the same
	// plan, so the tracing overhead is measured on the same host state
	// and the traced outcomes can be checked against the untraced ones.
	modes := []*tracer{nil}
	if traced {
		modes = append(modes, &tracer{})
	}
	mem := startMemSampler()
	defer mem.close()
	var iters []iteration
	start := time.Now()
loop:
	for k := 0; k == 0 || time.Since(start) < seconds; k++ {
		items, err := wl.matrix(subSeed(seed, k))
		if err != nil {
			return err
		}
		for _, tr := range modes {
			it, err := runIteration(wl, items, subSeed(seed, k), tr, mem)
			if err != nil {
				fail(planned(items), "iteration %d: %v", k, err)
				break loop
			}
			iters = append(iters, it)
		}
	}

	attempted := 0
	for i, it := range iters {
		attempted += it.planned
		ref := warmDigest
		if i > 0 && it.traced {
			ref = iters[i-1].digest
		}
		if (i == 0 || it.traced) && it.digest != ref {
			fail(it.planned, "iteration %d (traced %v): digest %016x, want %016x", i, it.traced, it.digest, ref)
		}
	}
	if len(iters) > 0 {
		last := iters[len(iters)-1]
		n, bad := checkSamples(last.items, groups, last.results, last.seed)
		failed += n
		notes = append(notes, bad...)
		fmt.Printf("digest: %s %016x (iteration 0)\n", wl.name, iters[0].digest)
	}
	var local *iterOut
	if wl.name == "fleet-window" && len(iters) > 0 {
		// The fleet must reproduce the local sweep of the same matrix
		// outcome for outcome.
		if lo, err := runSweep(iters[0].items, iters[0].seed, nil); err != nil {
			fail(iters[0].planned, "local ma-window sweep: %v", err)
		} else {
			local = &lo
			d := digest(iters[0].items, lo.results)
			fmt.Printf("digest: ma-window (local) %016x\n", d)
			if d != iters[0].digest {
				fail(iters[0].planned, "fleet-window digest differs from the local ma-window sweep")
			}
		}
	}
	if attempted == 0 {
		attempted = planned(items0)
		failed = max(failed, attempted)
	}
	for _, s := range notes {
		fmt.Println("FAIL:", s)
	}

	var ms map[string]metric
	if traced {
		ms = layerMetrics(items0, iters, setup, local)
	} else {
		ms = endToEndMetrics(iters, setup)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func planned(items []core.MatrixItem) int {
	n := 0
	for _, it := range items {
		n += it.Campaign.Config.Injections
	}
	return n
}

// runIteration runs one iteration between forced collections, so each
// iteration pays for its own garbage.
func runIteration(wl *workload, items []core.MatrixItem, seed int64, tr *tracer, mem *memSampler) (iteration, error) {
	runtime.GC()
	before := readRuntime()
	mem.reset()
	out, err := wl.run(items, seed, tr)
	if err != nil {
		if tr != nil {
			tr.collect()
		}
		return iteration{}, err
	}
	it := iteration{iterOut: out, items: items, seed: seed, traced: tr != nil, planned: planned(items)}
	it.alloc = readRuntime().sub(before)
	it.rssMiB, it.heapMiB = mem.peaks()
	it.digest = digest(items, out.results)
	if tr != nil {
		it.layers = tr.collect()
	}
	kind := "untraced"
	if it.traced {
		kind = "traced"
	}
	fmt.Printf("iteration: %s %.4fs %d faults %.2f faults/s digest %016x\n",
		kind, out.wall.Seconds(), it.planned, float64(it.planned)/out.wall.Seconds(), it.digest)
	return it, nil
}

func endToEndMetrics(iters []iteration, setup setupTimes) map[string]metric {
	var fps, kb, rss []float64
	for _, it := range iters {
		fps = append(fps, float64(it.planned)/it.wall.Seconds())
		kb = append(kb, float64(it.alloc.allocBytes)/1024/float64(it.planned))
		rss = append(rss, it.rssMiB)
	}
	return map[string]metric{
		"faults_per_s":       {median(fps), "1/s"},
		"setup_s":            {setup.total, "s"},
		"alloc_kb_per_fault": {median(kb), "KiB"},
		"peak_rss_mb":        {median(rss), "MiB"},
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// runtimeDelta is the runtime/metrics change over one iteration.
type runtimeDelta struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: s[0].Value.Uint64(), allocObjects: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
	}
}

// printHost records the host and settings the run measured under.
func printHost(wl *workload, seed int64, traced bool, items []core.MatrixItem) {
	rec := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"workload":   wl.name,
		"seed":       seed,
		"traced":     traced,
		"pool_width": width,
		"campaigns":  len(items),
		"injections": items[0].Campaign.Config.Injections,
		"poll":       "distrib defaults (Client.Poll and WorkerOptions.Poll unset: 500ms)",
		"lanes":      campaign.MaxLanes,
	}
	b, _ := json.Marshal(rec) // a map of plain values always marshals
	fmt.Println("host:", string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision run.sh found, if the checkout is a git tree.
func commit() string {
	if c := os.Getenv("CAMPAIGNBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
