package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"uncharted/internal/service"
)

// The open-loop generator sends requests on a fixed schedule whatever
// the service does, and times each one from when it was due, so a
// stall counts against every request queued behind it.

// endpoint kinds of the control-room mix.
const (
	epProfile = iota
	epQuery
	epStatusz
	epFleet
	epPartial
	numEndpoints
)

var endpointNames = [numEndpoints]string{"profile", "query", "statusz", "fleet", "partial"}

// rates is a request rate per endpoint, in requests per second.
type rates [numEndpoints]float64

func (r rates) total() float64 {
	var t float64
	for _, v := range r {
		t += v
	}
	return t
}

// byName labels the rates for the result record.
func (r rates) byName() map[string]float64 {
	out := make(map[string]float64, numEndpoints)
	for k, v := range r {
		out[endpointNames[k]] = v
	}
	return out
}

// controlRates splits reads per second over the read endpoints by the
// weights of service.DefaultMix, the repository's model of a
// control-room wall: profile 8, query 2 and statusz 1 on the live
// tenant. Its drift weight (1) is left out, because the live tenant
// has no baseline and so serves no /drift. The fleet tenant's wall
// reads /fleet, which is what a probe tenant serves as its profile, so
// it gets the profile weight. Partial posts come on top at their own
// rate.
func controlRates(reads, partials float64) rates {
	w := service.DefaultMix
	sum := float64(2*w["profile"] + w["query"] + w["statusz"])
	return rates{
		epProfile: reads * float64(w["profile"]) / sum,
		epQuery:   reads * float64(w["query"]) / sum,
		epStatusz: reads * float64(w["statusz"]) / sum,
		epFleet:   reads * float64(w["profile"]) / sum,
		epPartial: partials,
	}
}

// point is one historian point taken from the live catalog.
type point struct {
	Station string `json:"station"`
	IOA     uint32 `json:"ioa"`
}

// probePost is one prepared probe partial.
type probePost struct {
	label   string
	body    []byte
	packets int64
}

// request is one scheduled call.
type request struct {
	due  time.Duration
	kind int
	arg  int
}

// schedule lays out seconds of requests at the given rates, evenly
// spaced. The endpoints are interleaved by smooth weighted round robin,
// so every stretch of the schedule carries the same shares; queries
// walk the catalog points in turn and posts walk the prepared partials
// in order from index first.
func schedule(r rates, seconds float64, points, posts, first int) []request {
	total := r.total()
	out := make([]request, int(seconds*total))
	var credit rates
	query, post := 0, first
	for i := range out {
		req := request{due: time.Duration(float64(i) / total * float64(time.Second))}
		for k := range credit {
			credit[k] += r[k]
			if credit[k] > credit[req.kind] {
				req.kind = k
			}
		}
		credit[req.kind] -= total
		switch req.kind {
		case epQuery:
			req.arg = query % points
			query++
		case epPartial:
			req.arg = post % posts
			post++
		}
		out[i] = req
	}
	return out
}

// outcome is one completed request.
type outcome struct {
	kind    int
	ok      bool
	latency time.Duration
	// fresh is the profile's staleness, for live profile responses,
	// and seq the snapshot sequence the response carried.
	fresh    time.Duration
	hasFresh bool
	seq      int64
	cacheHit bool
	cached   bool
	// version is the aggregate version a partial post was applied at.
	version uint64
	arg     int
	// why describes a failure.
	why string
}

// loadResult is what one open-loop phase measured.
type loadResult struct {
	outcomes []outcome
	late     []time.Duration
}

// runLoad sends reqs against h from start, with conns workers (the
// connection cap). due gives the scheduled write time of a record
// number, for freshness; it may be nil.
func runLoad(h *host, reqs []request, start time.Time, conns int, live string, points []point, posts []probePost, due func(n int64) time.Time) loadResult {
	queue := make(chan int, len(reqs)) // sized to the whole schedule: the scheduler never blocks
	out := make([]outcome, len(reqs))
	late := make([]time.Duration, len(reqs))
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				out[i] = send(h, reqs[i], start, &buf, live, points, posts, due)
			}
		}()
	}
	for i, r := range reqs {
		at := start.Add(r.due)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(at)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return loadResult{outcomes: out, late: late}
}

// send performs one scheduled request.
func send(h *host, r request, start time.Time, buf *bytes.Buffer, live string, points []point, posts []probePost, due func(int64) time.Time) outcome {
	o := outcome{kind: r.kind, arg: r.arg}
	var (
		code int
		hdr  http.Header
		err  error
	)
	switch r.kind {
	case epProfile:
		code, hdr, err = h.get("/v1/"+live+"/profile", buf)
	case epQuery:
		p := points[r.arg]
		code, hdr, err = h.get(fmt.Sprintf("/v1/%s/query?station=%s&ioa=%d", live, url.QueryEscape(p.Station), p.IOA), buf)
	case epStatusz:
		code, hdr, err = h.get("/v1/"+live+"/statusz?format=json", buf)
	case epFleet:
		code, hdr, err = h.get("/v1/fleet/fleet", buf)
	case epPartial:
		code, hdr, err = h.do(http.MethodPost, "/v1/fleet/partial?probe="+url.QueryEscape(posts[r.arg].label), posts[r.arg].body, buf)
	}
	done := time.Now()
	o.latency = done.Sub(start.Add(r.due))
	o.ok = err == nil && (code == http.StatusOK || code == http.StatusNotModified)
	if !o.ok {
		o.why = fmt.Sprintf("%s: status %d, %v", endpointNames[r.kind], code, err)
		return o
	}
	if c := hdr.Get("X-Cache"); c != "" {
		o.cached, o.cacheHit = true, c == "hit"
	}
	switch r.kind {
	case epProfile:
		n, ok := jsonInt(buf.Bytes(), "packets")
		seq, sok := jsonInt(buf.Bytes(), "seq")
		if ok && sok && n > 0 && due != nil {
			o.fresh, o.hasFresh, o.seq = done.Sub(due(n)), true, seq
		}
	case epPartial:
		var ack struct {
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(buf.Bytes(), &ack); err != nil {
			o.ok, o.why = false, "partial: bad acknowledgement: "+err.Error()
		}
		o.version = ack.Version
	}
	return o
}

// summary reduces an open-loop phase to its report.
type summary struct {
	sent, failed       int64
	latency, freshness []float64 // ms
	// publishLag holds, per snapshot published during the phase, the
	// freshness of the first response that carried it: how long after
	// its scheduled write the snapshot's last record first reached an
	// operator. Unlike freshness it leaves out the time a snapshot
	// then sits until the next one replaces it.
	publishLag []float64 // ms
	lateP99    float64   // ms
	hitRatio   float64
	// newest maps each probe label to the post the service applied
	// last, by the aggregate version it acknowledged.
	newest        map[string]int
	newestVersion map[string]uint64
	// failures counts failed requests by endpoint and cause.
	failures map[string]int
}

// summarize reduces lr; seeded are posts applied before the phase,
// which count for the newest partial per probe.
func summarize(lr loadResult, posts []probePost, seeded []outcome) summary {
	s := summary{newest: map[string]int{}, newestVersion: map[string]uint64{}, failures: map[string]int{}}
	for _, o := range seeded {
		s.notePost(o, posts)
	}
	var hits, cached int
	firstSeen := map[int64]float64{}
	for _, o := range lr.outcomes {
		s.sent++
		if !o.ok {
			s.failed++
			s.failures[o.why]++
			continue
		}
		ms := float64(o.latency) / 1e6
		s.latency = append(s.latency, ms)
		if o.hasFresh {
			ms := float64(o.fresh) / 1e6
			s.freshness = append(s.freshness, ms)
			if f, ok := firstSeen[o.seq]; !ok || ms < f {
				firstSeen[o.seq] = ms
			}
		}
		if o.cached {
			cached++
			if o.cacheHit {
				hits++
			}
		}
		if o.kind == epPartial {
			s.notePost(o, posts)
		}
	}
	// The lowest sequence seen may have been published before the
	// phase began, so its first response says nothing about its lag.
	oldest := int64(-1)
	for seq := range firstSeen {
		if oldest < 0 || seq < oldest {
			oldest = seq
		}
	}
	for seq, ms := range firstSeen {
		if seq != oldest {
			s.publishLag = append(s.publishLag, ms)
		}
	}
	late := make([]float64, len(lr.late))
	for i, d := range lr.late {
		late[i] = float64(d) / 1e6
	}
	s.lateP99 = quantile(late, 0.99)
	s.hitRatio = ratio(float64(hits), float64(cached))
	return s
}

// notePost keeps the post the service applied last for its probe.
func (s *summary) notePost(o outcome, posts []probePost) {
	label := posts[o.arg].label
	if o.version > s.newestVersion[label] {
		s.newestVersion[label] = o.version
		s.newest[label] = o.arg
	}
}

// seedFleet posts the first partial of every probe, so the fleet view
// has data before the measured phase; a failed post is an error.
func seedFleet(h *host, posts []probePost, n int) ([]outcome, error) {
	var buf bytes.Buffer
	out := make([]outcome, n)
	start := time.Now()
	for i := range out {
		out[i] = send(h, request{kind: epPartial, arg: i}, start, &buf, "", nil, posts, nil)
		if !out[i].ok {
			return nil, fmt.Errorf("seeding the fleet: %s", out[i].why)
		}
	}
	return out, nil
}
