package main

import "testing"

// Self time is a span's duration minus what its children cover; backend
// spans of one routed request run in parallel, so they cover the longest.
func TestSummarizeSelfTimes(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	spans := []span{
		// request 1, bwp: 100 us at the client, 60 us of it in the backend
		{Req: 1, Name: "request", StartNS: 0, EndNS: us(100)},
		{Req: 1, Name: "backend", Node: "a", StartNS: us(20), EndNS: us(80)},
		// request 2, routed: 1000 us at the client, 700 in the router,
		// backends of 300 and 500 us side by side
		{Req: 2, Name: "request", StartNS: us(200), EndNS: us(1200)},
		{Req: 2, Name: "router", StartNS: us(300), EndNS: us(1000)},
		{Req: 2, Name: "backend", Node: "a", StartNS: us(350), EndNS: us(650)},
		{Req: 2, Name: "backend", Node: "b", StartNS: us(350), EndNS: us(850)},
		// a hedge that outlived its request: no request span, ignored
		{Req: 3, Name: "backend", Node: "r", StartNS: us(2000), EndNS: us(2100)},
	}
	s := summarize(spans)
	if s.Requests != 2 {
		t.Fatalf("%d requests, want 2", s.Requests)
	}
	if s.WireSelfP50US != 40 {
		t.Errorf("wire self %v us, want 100-60 = 40", s.WireSelfP50US)
	}
	if s.RouterP50US != 700 || s.RouterSelfP50US != 200 || s.ClientHTTPP50US != 300 {
		t.Errorf("router %v, router self %v, client %v; want 700, 700-500 = 200, 1000-700 = 300",
			s.RouterP50US, s.RouterSelfP50US, s.ClientHTTPP50US)
	}
	if s.BackendsPerRequest != 1.5 {
		t.Errorf("%v backends per request, want 1.5", s.BackendsPerRequest)
	}
	if s.BackendTotalUS != 60+300+500 {
		t.Errorf("backend total %v us, want 860", s.BackendTotalUS)
	}
}

func TestRecorderOnlyRecordsWhenOn(t *testing.T) {
	var none *recorder
	if none.enabled() {
		t.Error("nil recorder enabled")
	}
	r := newRecorder()
	if r.enabled() {
		t.Error("new recorder enabled before being switched on")
	}
	r.on.Store(true)
	r.req.Store(7)
	r.record("backend", "a", r.epoch, r.epoch.Add(1500))
	if len(r.spans) != 1 || r.spans[0].Req != 7 || r.spans[0].us() != 1.5 {
		t.Errorf("recorded %+v", r.spans)
	}
}
