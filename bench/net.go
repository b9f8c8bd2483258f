package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// network is how a workload's clients reach its servers. svc_cold goes
// over loopback TCP (a 25 ms compile does not notice the wire); the two
// workloads whose op is a sub-millisecond cache hit go over the fabric.
type network interface {
	// serve puts h on the network and returns its base URL and a function
	// that takes it off again.
	serve(h http.Handler) (url string, stop func())
	// client returns an HTTP client for `clients` closed-loop callers.
	client(clients int) *http.Client
}

// loopback is httptest: a real listener on 127.0.0.1, real connections.
type loopback struct{}

func (loopback) serve(h http.Handler) (string, func()) {
	ts := httptest.NewServer(h)
	return ts.URL, ts.Close
}

// client keeps one connection per closed-loop client alive (the default
// transport keeps two per host).
func (loopback) client(clients int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clients + 2
	return &http.Client{Transport: tr, Timeout: 2 * time.Minute}
}

// fabric is an in-process network: an http.RoundTripper that serves a
// request by calling the addressed handler on the caller's own goroutine.
// Everything this repository does for a request still runs — the handler
// chain, decode, hash, lookup, encode, and for a gateway the route, the
// ring and the forward (the gateway takes the fabric as its Transport) —
// but no system call, no socket and no goroutine hand-over. The loopback
// wire was about 40 % of a 0.14 ms hit; it is Go's and the kernel's code,
// which no change to this repository can move, and on a shared guest it
// is the part most exposed to the hypervisor (wake-ups between vCPUs,
// timers): over it the driver saw the hit metrics spread past 25 %.
type fabric struct {
	mu    sync.RWMutex
	hosts map[string]http.Handler
	next  int
}

func newFabric() *fabric { return &fabric{hosts: make(map[string]http.Handler)} }

func (f *fabric) serve(h http.Handler) (string, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.next++
	host := fmt.Sprintf("node%d.fabric", f.next)
	f.hosts[host] = h
	return "http://" + host, func() {
		f.mu.Lock()
		delete(f.hosts, host)
		f.mu.Unlock()
	}
}

// client has no timeout: a timeout arms a timer and a watcher goroutine
// per request, which is the kind of noise the fabric exists to avoid.
func (f *fabric) client(int) *http.Client { return &http.Client{Transport: f} }

func (f *fabric) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.RLock()
	h, ok := f.hosts[req.URL.Host]
	f.mu.RUnlock()
	if !ok {
		// What a stopped server looks like to a client.
		return nil, fmt.Errorf("fabric: connection refused: %s", req.URL.Host)
	}
	in := req.Clone(req.Context())
	in.RequestURI = req.URL.RequestURI()
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
