package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// memEvery is the memory sampling period.
const memEvery = 5 * time.Millisecond

// memSampler samples the process's resident set and live heap while
// iterations run, keeping the peaks since the last reset. Per-iteration
// peaks exclude set-up and warm-up, whose garbage would otherwise set
// the process high-water mark.
type memSampler struct {
	rss, heap atomic.Uint64 // peaks since reset, bytes
	stop      chan struct{}
	done      chan struct{}
	sample    []metrics.Sample // only the sampler goroutine and peaks (after stop) touch it
}

func startMemSampler() *memSampler {
	m := &memSampler{
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(memEvery)
		defer tick.Stop()
		for {
			m.observe()
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *memSampler) observe() {
	metrics.Read(m.sample)
	storeMax(&m.heap, m.sample[0].Value.Uint64())
	storeMax(&m.rss, residentBytes())
}

func storeMax(a *atomic.Uint64, v uint64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak window.
func (m *memSampler) reset() {
	m.rss.Store(residentBytes())
	m.heap.Store(0)
}

// peaks returns the peaks since reset, in MiB.
func (m *memSampler) peaks() (rss, heap float64) {
	storeMax(&m.rss, residentBytes())
	return float64(m.rss.Load()) / (1 << 20), float64(m.heap.Load()) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}

// residentBytes is the process's current resident set (0 where
// /proc/self/statm is unavailable).
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
