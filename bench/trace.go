package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a seam. The traced phase keeps exactly one
// request in flight, so every span recorded while request r is outstanding
// belongs to r and nests inside r's "request" span by time:
// request (client call) > router (HTTP middleware, routed only) > backend
// (wrapper around a node's wire backend).
type span struct {
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	Node    string `json:"node,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.EndNS-s.StartNS) / 1e3 }

// maxSpans bounds the trace kept in memory (~100 B a span).
const maxSpans = 400000

// recorder collects spans in memory while it is on. The seam wrappers stay
// installed for the whole traced run and cost one atomic load when it is off,
// which is what lets the same process measure the tracing overhead.
type recorder struct {
	on    atomic.Bool
	req   atomic.Int64
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// enabled reports whether spans are being recorded; a nil recorder never is.
func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// record stores one span under the request currently in flight.
func (r *recorder) record(name, node string, start, end time.Time) {
	s := span{Req: r.req.Load(), Name: name, Node: node,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// spanSummary is the per-seam time of the traced phase.
type spanSummary struct {
	Requests                   int
	RequestP50US               float64
	BackendP50US, BackendP99US float64 // every backend lookup span
	UpdateP50US                float64 // backend update spans
	WireSelfP50US              float64 // request - backend, bwp workloads
	WireSelfP99US              float64
	RouterP50US                float64 // router handler span
	RouterSelfP50US            float64 // router - its longest backend child
	ClientHTTPP50US            float64 // request - router
	BackendsPerRequest         float64
	BackendTotalUS             float64 // sum of the backend spans
}

// summarize groups the spans by request and computes self times: a span's
// duration minus the part its children cover. Backend spans of one routed
// request run in parallel, so the part they cover is the longest of them.
func summarize(spans []span) spanSummary {
	type perReq struct {
		request, router, longest, backendSum float64
		backends                             int
	}
	reqs := map[int64]*perReq{}
	var backend, update []float64
	for _, s := range spans {
		p := reqs[s.Req]
		if p == nil {
			p = &perReq{}
			reqs[s.Req] = p
		}
		switch s.Name {
		case "request":
			p.request = s.us()
		case "router":
			p.router = s.us()
		case "backend", "backend-update":
			d := s.us()
			if s.Name == "backend" {
				backend = append(backend, d)
			} else {
				update = append(update, d)
			}
			p.backends++
			p.backendSum += d
			if d > p.longest {
				p.longest = d
			}
		}
	}
	var request, wireSelf, router, routerSelf, clientHTTP []float64
	var out spanSummary
	for _, p := range reqs {
		if p.request == 0 {
			continue // a span that outlived its request (a hedge that lost)
		}
		out.Requests++
		out.BackendsPerRequest += float64(p.backends)
		out.BackendTotalUS += p.backendSum
		request = append(request, p.request)
		if p.router > 0 {
			router = append(router, p.router)
			routerSelf = append(routerSelf, p.router-p.longest)
			clientHTTP = append(clientHTTP, p.request-p.router)
		} else {
			wireSelf = append(wireSelf, p.request-p.longest)
		}
	}
	if out.Requests > 0 {
		out.BackendsPerRequest /= float64(out.Requests)
	}
	for _, v := range [][]float64{request, backend, update, wireSelf, router, routerSelf, clientHTTP} {
		sort.Float64s(v)
	}
	out.RequestP50US = percentile(request, 0.5)
	out.BackendP50US, out.BackendP99US = percentile(backend, 0.5), percentile(backend, 0.99)
	out.UpdateP50US = percentile(update, 0.5)
	out.WireSelfP50US, out.WireSelfP99US = percentile(wireSelf, 0.5), percentile(wireSelf, 0.99)
	out.RouterP50US = percentile(router, 0.5)
	out.RouterSelfP50US = percentile(routerSelf, 0.5)
	out.ClientHTTPP50US = percentile(clientHTTP, 0.5)
	return out
}

// writeTrace writes the spans to bench/out/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
