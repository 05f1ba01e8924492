package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// endpoints are the coordinator API calls the fleet makes, named as the
// per-layer wire.<endpoint> and coord.<endpoint> metrics name them.
// Heartbeats are left out: a shard finishes long before the first one
// is due (a third of the 15 s lease TTL).
var endpoints = []string{"submit", "progress", "report", "lease", "outcomes"}

// endpointOf maps a request onto its API endpoint ("" for anything else).
func endpointOf(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/api/v1/campaigns":
		return "submit"
	case method == http.MethodGet && strings.HasPrefix(path, "/api/v1/campaigns/") && strings.HasSuffix(path, "/report"):
		return "report"
	case method == http.MethodGet && strings.HasPrefix(path, "/api/v1/campaigns/"):
		return "progress"
	case path == "/api/v1/lease":
		return "lease"
	case path == "/api/v1/outcomes":
		return "outcomes"
	}
	return ""
}

// wireStats records the fleet's HTTP traffic: client-side round trips
// (through the transport every client and worker is given) and
// coordinator handler time (through distrib.LogRequests).
type wireStats struct {
	mu        sync.Mutex
	client    map[string][]time.Duration // round trip to end of body, per endpoint
	server    map[string][]time.Duration // handler time, per endpoint
	bytes     int64                      // request plus response bodies
	idlePolls int                        // lease polls answered 204 (no work)
}

func newWireStats() *wireStats {
	return &wireStats{client: make(map[string][]time.Duration), server: make(map[string][]time.Duration)}
}

func (w *wireStats) serverSide(method, path string, _ int, d time.Duration) {
	if ep := endpointOf(method, path); ep != "" {
		w.mu.Lock()
		w.server[ep] = append(w.server[ep], d)
		w.mu.Unlock()
	}
}

// httpClient returns an HTTP client whose round trips are recorded. The
// timeout matches the distrib package's default client.
func (w *wireStats) httpClient() *http.Client {
	return &http.Client{Transport: &timedTransport{w: w, next: http.DefaultTransport}, Timeout: 60 * time.Second}
}

type timedTransport struct {
	w    *wireStats
	next http.RoundTripper
}

// RoundTrip times a request from send until its response body is
// closed, so the body transfer counts as wire time.
func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	var reqBytes int64
	if req.ContentLength > 0 {
		reqBytes = req.ContentLength
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	ep := endpointOf(req.Method, req.URL.Path)
	idle := ep == "lease" && resp.StatusCode == http.StatusNoContent
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		t.w.mu.Lock()
		defer t.w.mu.Unlock()
		t.w.bytes += reqBytes + n
		if idle {
			t.w.idlePolls++
		}
		if ep != "" {
			t.w.client[ep] = append(t.w.client[ep], time.Since(start))
		}
	}}
	return resp, nil
}

// timedBody counts the bytes read and reports once on Close.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// workerGoldenTime reads the distrib workers' cumulative golden-prep
// time from the process metrics registry.
func workerGoldenTime() time.Duration {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		return 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if ok && name == "worker_golden_prep_seconds_sum" {
			s, err := strconv.ParseFloat(val, 64)
			if err == nil {
				return time.Duration(s * float64(time.Second))
			}
		}
	}
	return 0
}
