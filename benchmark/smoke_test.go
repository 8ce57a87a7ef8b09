package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/iec104"
	"uncharted/internal/service"
)

// reported lists, per workload, the metrics an untraced run must print
// beyond the bounded set.
var reported = map[string][]string{
	"y1_offline":      {"ingest_mb_per_s", "cpu_s_per_input_mb", "fail_ratio"},
	"mixed_historian": {"ingest_mb_per_s", "cpu_s_per_input_mb", "fail_ratio"},
	"control_room": {"cpu_s_per_input_mb", "fail_ratio", "http_p50_ms", "http_p99_ms", "freshness_p50_ms", "freshness_p99_ms",
		"loadgen.late_p99_ms", "service.cache_hit_ratio"},
}

// TestSmoke runs every workload, untraced and traced, at a tiny scale:
// every oracle must pass and every metric must be present with its unit.
func TestSmoke(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{Workload: name, Seed: 5, Seconds: 0.3, Trace: traced, Smoke: true, Work: t.TempDir()}
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			for _, p := range res.Problems {
				t.Errorf("%s trace=%v: oracle: %s", name, traced, p)
			}
			bounded := endToEnd
			if traced {
				bounded = perLayer
			}
			if len(res.Metrics) != len(bounded) {
				t.Errorf("%s trace=%v: %d bounded metrics, want %d", name, traced, len(res.Metrics), len(bounded))
			}
			want := bounded
			if !traced {
				want = append(append([]string(nil), bounded...), reported[name]...)
			}
			for _, m := range want {
				got, ok := res.Report[m]
				if !ok || got.Unit == "" {
					t.Errorf("%s trace=%v: metric %s missing or without unit", name, traced, m)
				}
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", name, traced, res.Attempted)
			}
			if traced && len(res.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
}

// TestOraclesCatchPerturbedOutput proves each check fails on output
// that differs from the oracle.
func TestOraclesCatchPerturbedOutput(t *testing.T) {
	dir := t.TempDir()
	c, err := synthesize(y1Offline.sim(9, 0.05), filepath.Join(dir, "capture.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := y1Offline.oracle(c)
	if err != nil {
		t.Fatal(err)
	}
	_, final, err := runPass(context.Background(), y1Offline, c.Path, "")
	if err != nil {
		t.Fatal(err)
	}
	if p := checkEncoding("pass", final, oracle.encoding); len(p) > 0 {
		t.Fatalf("unperturbed output fails its oracle: %v", p)
	}
	if p := checkShardInvariant(*oracle.offline, final); len(p) > 0 {
		t.Fatalf("unperturbed output fails the offline oracle: %v", p)
	}

	perturbations := map[string]func(p *core.Partial){
		"packets":     func(p *core.Partial) { p.Packets++ },
		"asdus":       func(p *core.Partial) { p.TotalASDUs-- },
		"type counts": func(p *core.Partial) { p.TypeCounts = map[iec104.TypeID]int{} },
		"flows":       func(p *core.Partial) { p.Flows.ShortLived++ },
		"window":      func(p *core.Partial) { p.Last = p.Last.Add(1) },
	}
	for name, perturb := range perturbations {
		p := final
		perturb(&p)
		if len(checkEncoding(name, p, oracle.encoding)) == 0 {
			t.Errorf("encoding oracle missed a perturbed %s", name)
		}
		if len(checkShardInvariant(*oracle.offline, p)) == 0 {
			t.Errorf("offline oracle missed a perturbed %s", name)
		}
	}

	// A capture that lost its last records produces a different
	// profile, which the oracle of the full capture must reject.
	data, err := os.ReadFile(c.Path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.pcap")
	if err := os.WriteFile(cut, data[:len(data)*9/10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, short, err := runPass(context.Background(), y1Offline, cut, ""); err == nil {
		if len(checkEncoding("truncated", short, oracle.encoding)) == 0 {
			t.Error("encoding oracle accepted the output of a truncated capture")
		}
	}

	if len(checkCount("historian samples", 10, 11)) == 0 {
		t.Error("count oracle accepted a mismatch")
	}
}

// TestFleetOracleFollowsAcknowledgedVersions checks that the newest
// partial per probe is the one the service acknowledged last, whatever
// order the responses completed in.
func TestFleetOracleFollowsAcknowledgedVersions(t *testing.T) {
	posts := []probePost{{label: "a", packets: 1}, {label: "a", packets: 2}, {label: "b", packets: 4}}
	lr := loadResult{outcomes: []outcome{
		{kind: epPartial, ok: true, arg: 1, version: 3},
		{kind: epPartial, ok: true, arg: 0, version: 4},
		{kind: epPartial, ok: true, arg: 2, version: 2},
	}}
	s := summarize(lr, posts, nil)
	var want int64
	for _, i := range s.newest {
		want += posts[i].packets
	}
	if want != 5 {
		t.Fatalf("newest partials sum to %d packets, want 5 (a@v4 + b@v2)", want)
	}
}

// TestPublishLagTakesFirstResponsePerSnapshot checks that the publish
// lag keeps, per snapshot, the freshest response that carried it, and
// drops the oldest snapshot, which may predate the phase.
func TestPublishLagTakesFirstResponsePerSnapshot(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	lr := loadResult{outcomes: []outcome{
		{kind: epProfile, ok: true, hasFresh: true, seq: 7, fresh: ms(400)},
		{kind: epProfile, ok: true, hasFresh: true, seq: 8, fresh: ms(50)},
		{kind: epProfile, ok: true, hasFresh: true, seq: 8, fresh: ms(40)},
		{kind: epProfile, ok: true, hasFresh: true, seq: 9, fresh: ms(30)},
		{kind: epProfile, ok: true, hasFresh: true, seq: 9, fresh: ms(90)},
	}}
	s := summarize(lr, nil, nil)
	sort.Float64s(s.publishLag)
	if want := []float64{30, 40}; !reflect.DeepEqual(s.publishLag, want) {
		t.Fatalf("publish lag %v, want %v", s.publishLag, want)
	}
	if len(s.freshness) != 5 {
		t.Fatalf("%d freshness samples, want 5", len(s.freshness))
	}
}

// TestScheduleFollowsRates checks that the schedule carries every
// endpoint at its rate and the reads in DefaultMix's proportions.
func TestScheduleFollowsRates(t *testing.T) {
	r := controlRates(300, 0.5)
	reqs := schedule(r, 20, 10, 60, 27)
	var n [numEndpoints]int
	for _, q := range reqs {
		n[q.kind]++
	}
	for k, rate := range r {
		if want := rate * 20; math.Abs(float64(n[k])-want) > 1 {
			t.Errorf("%s: %d requests in 20 s, want %.1f", endpointNames[k], n[k], want)
		}
	}
	w := service.DefaultMix
	for _, k := range []int{epQuery, epStatusz} {
		want := float64(n[epProfile]) * float64(w[endpointNames[k]]) / float64(w["profile"])
		if math.Abs(float64(n[k])-want) > 1 {
			t.Errorf("%s: %d requests for %d profile reads, want %.1f by DefaultMix", endpointNames[k], n[k], n[epProfile], want)
		}
	}
}

// TestServiceRungFailsOnErrorStatus checks that a handler answering
// anything but 200 is reported, not timed as a success.
func TestServiceRungFailsOnErrorStatus(t *testing.T) {
	cfg := service.Config{Tenants: []service.TenantConfig{{Name: "fleet", Source: service.SourceConfig{Kind: "probe"}}}}
	h, _, err := startHost(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	posts := []probePost{{label: "probe-0", body: []byte("not a profile")}}
	problems := serviceRung(newTracer(), 0, h, []point{{Station: "S1", IOA: 1}}, posts, true, map[string]metric{})
	if len(problems) == 0 {
		t.Fatal("service rung accepted 404s from a missing tenant and 400s from a bad partial")
	}
}
