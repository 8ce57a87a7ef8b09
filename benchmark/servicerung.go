package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sort"
	"time"

	"uncharted/internal/drift"
)

// serviceRung times Service.Handler().ServeHTTP in process, without a
// socket, for every endpoint of the control-room mix. One span covers
// each endpoint's batch of calls; the per-call times only feed the
// quantiles. Fleet reads are interleaved with one partial post per
// three reads until the posts run out, so reads see rebuilds and the
// post quantiles have samples. Every call must answer 200; it returns
// a problem for each that did not.
func serviceRung(t *tracer, parent int, h *host, points []point, posts []probePost, smoke bool, report map[string]metric) []string {
	reads, writes := 1000, 40
	if smoke {
		reads, writes = 30, 3
	}
	handler := h.svc.Handler()
	bad := map[string]int{}
	call := func(method, target string, body []byte) float64 {
		var req *http.Request
		if body != nil {
			req = httptest.NewRequest(method, target, bytes.NewReader(body))
		} else {
			req = httptest.NewRequest(method, target, nil)
		}
		rr := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rr, req)
		d := float64(time.Since(start)) / 1e3
		if rr.Code != http.StatusOK {
			bad[fmt.Sprintf("service rung: %s %s: status %d", method, req.URL.Path, rr.Code)]++
		}
		return d
	}
	quantiles := func(name string, us []float64) {
		report["service."+name+".handler_us_p50"] = metric{median(us), "us"}
		report["service."+name+".handler_us_p99"] = metric{quantile(us, 0.99), "us"}
	}
	get := func(name string, target func(i int) string) {
		id := t.begin("service."+name, parent)
		us := make([]float64, reads)
		for i := range us {
			us[i] = call(http.MethodGet, target(i), nil)
		}
		t.end(id, int64(reads))
		quantiles(name, us)
	}
	get("profile", func(int) string { return "/v1/live/profile" })
	get("query", func(i int) string {
		p := points[i%len(points)]
		return fmt.Sprintf("/v1/live/query?station=%s&ioa=%d", url.QueryEscape(p.Station), p.IOA)
	})
	get("statusz", func(int) string { return "/v1/live/statusz?format=json" })

	fleetID := t.begin("service.fleet", parent)
	postID := t.begin("service.partial", parent)
	var fleet, partial []float64
	for i := 0; i < reads; i++ {
		if i%3 == 0 && len(partial) < writes {
			p := posts[len(partial)%len(posts)]
			partial = append(partial, call(http.MethodPost, "/v1/fleet/partial?probe="+url.QueryEscape(p.label), p.body))
		}
		fleet = append(fleet, call(http.MethodGet, "/v1/fleet/fleet", nil))
	}
	t.end(postID, int64(len(partial)))
	t.end(fleetID, int64(len(fleet)))
	quantiles("fleet", fleet)
	quantiles("partial", partial)
	var problems []string
	for msg, n := range bad {
		problems = append(problems, fmt.Sprintf("%s (%d calls)", msg, n))
	}
	sort.Strings(problems)
	return problems
}

// runLadder is a batch workload's traced run: the ladder on its
// capture, the pipeline rung's output checked against the oracle, and
// the service rung on a control room that follows the finished
// capture.
func runLadder(o options, spec batchSpec, c capture, rec map[string]any) (*result, error) {
	preset := spec.preset(c.Path, "")
	lc := ladderConfig{
		path:      c.Path,
		names:     spec.names,
		protocols: preset.Protocols != "",
		historian: spec.historian,
		shards:    preset.Workers,
		readers:   preset.Readers,
		engine:    spec.engine,
		preset:    spec.preset,
		work:      o.Work,
	}
	oracle, err := spec.oracle(c)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	t := newTracer()
	report := map[string]metric{}
	res := &result{Record: rec, Report: report}
	out, err := ladderOn(t, lc, report)
	if err != nil {
		return nil, err
	}
	res.Attempted = int64(c.Records)
	res.Problems = append(res.Problems, checkEncoding("pipeline rung", out.final, oracle.encoding)...)
	if oracle.offline != nil {
		res.Problems = append(res.Problems, checkShardInvariant(*oracle.offline, out.final)...)
	}
	if oracle.samples >= 0 {
		res.Problems = append(res.Problems, checkCount("pipeline rung historian samples", out.samples, oracle.samples)...)
	}

	// The service rung's probes post the core rung's shard partials.
	var posts []probePost
	for i, p := range out.parts {
		label := fmt.Sprintf("probe-%d", i)
		posts = append(posts, probePost{label: label, packets: int64(p.Packets),
			body: drift.NewProfile(label, "probe", p, savedAt).Encode()})
	}
	conns := shards()
	h, _, err := startHost(liveConfig(c.Path, filepath.Join(o.Work, "service-hist")), conns)
	if err != nil {
		return nil, err
	}
	got, err := h.waitPackets("live", int64(c.Records), 120*time.Second)
	if err != nil {
		h.stop()
		return nil, err
	}
	res.Problems = append(res.Problems, checkCount("service tenant packets", got, int64(c.Records))...)
	points, err := catalog(h, "live")
	if err != nil {
		h.stop()
		return nil, err
	}
	// A short open-loop phase at half the control-room rate measures
	// the generator and the cache on this workload's data.
	rate, secs := httpRate/2, 2.0
	if o.Smoke {
		rate, secs = 50, 0.5
	}
	seeded, err := seedFleet(h, posts, len(posts))
	if err != nil {
		h.stop()
		return nil, err
	}
	// No posts here: the serviceRung below times the partial handler.
	reqs := schedule(controlRates(rate, 0), secs, len(points), len(posts), 0)
	s := summarize(runLoad(h, reqs, time.Now(), conns, "live", points, posts, nil), posts, seeded)
	report["loadgen.late_p99_ms"] = metric{s.lateP99, "ms"}
	report["service.cache_hit_ratio"] = metric{s.hitRatio, "ratio"}
	res.Attempted += s.sent
	res.Failed += s.failed
	root := t.begin("service", 0)
	res.Problems = append(res.Problems, serviceRung(t, root, h, points, posts, o.Smoke, report)...)
	t.end(root, 0)
	if err := h.stop(); err != nil {
		return nil, err
	}
	res.Spans = t.spans
	res.finish(o)
	return res, nil
}
