package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/pcap"
	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// Control-room load. The live capture is replayed at recordRate
// records per second, about 50 times the simulated tap's real-time
// rate and still about 1% of one worker's capacity. The HTTP generator
// reads at httpRate requests per second, so a 20 s window leaves 60
// samples beyond the p99. No source measures either rate for a real
// control room: both are chosen, and unverified. The read mix and the
// probes' write rate are derived from the repository (controlRates,
// partialRate).
const (
	recordRate = 5000.0
	httpRate   = 300.0
	warmup     = time.Second
	// p99LimitMS is the latency limit the p99 is held to.
	p99LimitMS = 100.0
	// lateLimitMS is how late the generator's own p99 may run before
	// the run is invalid: beyond it the schedule, not the service, set
	// the load.
	lateLimitMS = 50.0
	// versions is how many successive partials each probe has ready.
	versions = 2
)

// probeCount is one probe per substation of the paper's topology.
func probeCount() int { return len(topology.Build().Substations) }

// partialRate is the probes' write rate. A probe posts one partial
// per finished capture, as `profiler -push` does; the captures are the
// paper's default length, and their time is compressed by speedup, the
// factor the live capture is replayed at.
func partialRate(probes int, speedup float64) float64 {
	span := scadasim.DefaultConfig(topology.Y1, 0).Duration
	return float64(probes) * speedup / span.Seconds()
}

// liveInput is the live capture, serialized ahead of time so the
// writer only copies bytes on schedule.
type liveInput struct {
	header []byte
	data   []byte
	// ends[i] is the end offset in data of record i.
	ends []int
	// tapRate is the simulated tap's records per simulated second.
	tapRate float64
}

// prepareLive synthesizes a Y1 capture with at least n records and
// serializes its first n.
func prepareLive(seed int64, n int) (liveInput, error) {
	cfg := y1Config(seed, 1)
	// The Y1 tap averages about 100 records per simulated second.
	cfg.Duration = time.Duration(float64(n)/80*float64(time.Second)) + time.Minute
	tr, err := simulate(cfg)
	if err != nil {
		return liveInput{}, err
	}
	if len(tr.Records) < n {
		return liveInput{}, fmt.Errorf("live capture has %d records, need %d", len(tr.Records), n)
	}
	var buf bytes.Buffer
	pw := pcap.NewWriter(&buf, pcap.LinkTypeEthernet)
	if err := pw.WriteHeader(); err != nil {
		return liveInput{}, err
	}
	in := liveInput{ends: make([]int, n), tapRate: float64(len(tr.Records)) / cfg.Duration.Seconds()}
	for i := 0; i < n; i++ {
		frame, err := recordFrame(tr.Records[i])
		if err != nil {
			return liveInput{}, err
		}
		if err := pw.WritePacket(pcap.CaptureInfo{Timestamp: tr.Records[i].Time}, frame); err != nil {
			return liveInput{}, err
		}
		in.ends[i] = buf.Len() - 24
	}
	in.header = append([]byte(nil), buf.Bytes()[:24]...)
	in.data = append([]byte(nil), buf.Bytes()[24:]...)
	return in, nil
}

func simulate(cfg scadasim.Config) (*scadasim.Trace, error) {
	sim, err := scadasim.New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

func recordFrame(r scadasim.Record) ([]byte, error) {
	return pcap.BuildTCPPacket(r.Src, r.Dst, pcap.TCP{Seq: r.Seq, Ack: r.Ack, Flags: r.Flags, Payload: r.Payload})
}

// pairShard maps a packet's unordered IP pair to one of n shards, so a
// connection's both directions land together and partials merge
// exactly.
func pairShard(a, b netip.Addr, n int) int {
	if b.Less(a) {
		a, b = b, a
	}
	h := fnv.New32a()
	h.Write(a.AsSlice())
	h.Write(b.AsSlice())
	return int(h.Sum32() % uint32(n))
}

// prepareProbes builds the probe partials the generator posts: a
// second capture split over the probes by IP pair, each probe's
// partial encoded at versions growing checkpoints. Posts run
// checkpoint by checkpoint, every probe in turn.
func prepareProbes(seed int64, scale float64, probes int) ([]probePost, error) {
	tr, err := simulate(y1Config(seed+1, scale))
	if err != nil {
		return nil, err
	}
	an := make([]*core.Analyzer, probes)
	for i := range an {
		an[i] = core.NewAnalyzer(nil)
	}
	var posts []probePost
	for v := 1; v <= versions; v++ {
		lo, hi := len(tr.Records)*(v-1)/versions, len(tr.Records)*v/versions
		for _, r := range tr.Records[lo:hi] {
			frame, err := recordFrame(r)
			if err != nil {
				return nil, err
			}
			pkt, err := pcap.DecodePacket(pcap.LinkTypeEthernet, pcap.CaptureInfo{Timestamp: r.Time, CaptureLength: len(frame), Length: len(frame)}, frame)
			if err != nil {
				continue
			}
			an[pairShard(r.Src.Addr(), r.Dst.Addr(), probes)].FeedPacket(pkt)
		}
		for i, a := range an {
			label := fmt.Sprintf("probe-%d", i)
			p := a.Partial()
			posts = append(posts, probePost{
				label:   label,
				body:    drift.NewProfile(label, "probe", p, savedAt).Encode(),
				packets: int64(p.Packets),
			})
		}
	}
	return posts, nil
}

// liveWriter appends the live capture's records on their schedule.
type liveWriter struct {
	f       *os.File
	in      liveInput
	start   time.Time
	rate    float64
	written atomic.Int64
}

// due is the scheduled write time of record number n (1-based).
func (w *liveWriter) due(n int64) time.Time {
	return w.start.Add(time.Duration(float64(n-1) / w.rate * float64(time.Second)))
}

// bytesUpTo is the capture size, header excluded, after n records.
func (w *liveWriter) bytesUpTo(n int64) int {
	if n == 0 {
		return 0
	}
	return w.in.ends[n-1]
}

// run writes every record as it falls due, then returns.
func (w *liveWriter) run() error {
	total := int64(len(w.in.ends))
	for {
		n := int64(time.Since(w.start).Seconds()*w.rate) + 1
		if n > total {
			n = total
		}
		if cur := w.written.Load(); n > cur {
			if _, err := w.f.Write(w.in.data[w.bytesUpTo(cur):w.bytesUpTo(n)]); err != nil {
				return err
			}
			w.written.Store(n)
		}
		if n == total {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// catalog reads the live historian's point list over HTTP.
func catalog(h *host, tenant string) ([]point, error) {
	var buf bytes.Buffer
	code, _, err := h.get("/v1/"+tenant+"/query", &buf)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("catalog: status %d", code)
	}
	var rows []struct {
		point
		Samples int64 `json:"samples"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	var pts []point
	for _, r := range rows {
		if r.Samples > 0 {
			pts = append(pts, r.point)
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("catalog: no points recorded during warm-up")
	}
	return pts, nil
}

// fleetPackets reads the fleet view's packet count.
func fleetPackets(h *host) (int64, error) {
	var buf bytes.Buffer
	code, _, err := h.get("/v1/fleet/fleet", &buf)
	if err != nil {
		return 0, err
	}
	n, ok := jsonInt(buf.Bytes(), "packets")
	if code != http.StatusOK || !ok {
		return 0, fmt.Errorf("fleet: status %d", code)
	}
	return n, nil
}

func runControlRoom(ctx context.Context, o options) (*result, error) {
	rec := machineRecord(o)
	window := o.Seconds
	recRate, reqRate, fleetScale := recordRate, httpRate, 0.25
	extra := 3
	if o.Smoke {
		recRate, reqRate, fleetScale, extra = 500, 50, 0.02, 1
	}
	conns := shards()
	probes := probeCount()
	total := int((warmup.Seconds() + window + 0.5) * recRate)
	live, err := prepareLive(o.Seed, total)
	if err != nil {
		return nil, err
	}
	posts, err := prepareProbes(o.Seed, fleetScale, probes)
	if err != nil {
		return nil, err
	}
	speedup := recRate / live.tapRate
	mix := controlRates(reqRate, partialRate(probes, speedup))
	rec["record_rate_per_s"] = recRate
	rec["tap_rate_per_s"] = live.tapRate
	rec["replay_speedup"] = speedup
	rec["http_rate_per_s"] = mix.total()
	rec["http_conns"] = conns
	rec["mix_per_s"] = mix.byName()
	rec["p99_limit_ms"] = p99LimitMS
	rec["late_limit_ms"] = lateLimitMS
	rec["capture_records"] = total
	rec["capture_bytes"] = len(live.header) + len(live.data)
	rec["probes"], rec["probe_versions"] = probes, versions
	rec["loop"] = "open"

	var setups []time.Duration
	for i := 0; i < extra; i++ {
		dir := filepath.Join(o.Work, fmt.Sprintf("setup-%d", i))
		h, d, err := hostOn(dir, live.header, conns)
		if err != nil {
			return nil, err
		}
		if err := h.stop(); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}

	dir := filepath.Join(o.Work, "main")
	runtime.GC()
	var m0, mA, mB runtime.MemStats
	runtime.ReadMemStats(&m0)
	h, d, err := hostOn(dir, live.header, conns)
	if err != nil {
		return nil, err
	}
	setups = append(setups, d)
	res := &result{Record: rec}
	report := map[string]metric{}

	f, err := os.OpenFile(filepath.Join(dir, "live.pcap"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		h.stop()
		return nil, err
	}
	defer f.Close()
	w := &liveWriter{f: f, in: live, start: time.Now(), rate: recRate}
	wrote := make(chan error, 1)
	go func() { wrote <- w.run() }()

	time.Sleep(time.Until(w.start.Add(warmup)))
	points, err := catalog(h, "live")
	if err != nil {
		h.stop()
		<-wrote
		return nil, err
	}
	rec["query_points"] = len(points)
	seeded, err := seedFleet(h, posts, probes)
	if err != nil {
		h.stop()
		<-wrote
		return nil, err
	}
	reqs := schedule(mix, window, len(points), len(posts), probes)

	runtime.ReadMemStats(&mA)
	writtenA, cpuA, steal := w.written.Load(), cpuTime(), startSteal()
	lr := runLoad(h, reqs, time.Now(), conns, "live", points, posts, w.due)
	runtime.ReadMemStats(&mB)
	writtenB, cpuB := w.written.Load(), cpuTime()
	rec["host_steal_share"] = steal.share()
	if err := <-wrote; err != nil {
		h.stop()
		return nil, err
	}
	s := summarize(lr, posts, seeded)

	// Oracles, untimed: the live tenant ingests every record written,
	// and the fleet view sums the newest partial of every probe.
	got, err := h.waitPackets("live", int64(total), 10*time.Second)
	if err != nil {
		h.stop()
		return nil, err
	}
	res.Problems = append(res.Problems, checkCount("live packets after the writer stopped", got, int64(total))...)
	var want int64
	for _, i := range s.newest {
		want += posts[i].packets
	}
	fleet, err := fleetPackets(h)
	if err != nil {
		h.stop()
		return nil, err
	}
	res.Problems = append(res.Problems, checkCount("fleet packets vs newest partial per probe", fleet, want)...)
	if s.lateP99 > lateLimitMS {
		res.Problems = append(res.Problems, fmt.Sprintf("run invalid: the generator ran %.1f ms late at p99 (limit %.0f ms)", s.lateP99, lateLimitMS))
	}

	t := newTracer()
	if o.Trace {
		root := t.begin("service", 0)
		res.Problems = append(res.Problems, serviceRung(t, root, h, points, posts, o.Smoke, report)...)
		t.end(root, 0)
	}

	h.svc.Drain()
	after, err := h.waitPackets("live", int64(total), time.Second)
	if err != nil {
		h.close()
		return nil, err
	}
	res.Problems = append(res.Problems, checkCount("live packets after drain", after, int64(total))...)
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	retained := mb(float64(m1.HeapAlloc) - float64(m0.HeapAlloc))
	runtime.KeepAlive(h)
	if err := h.close(); err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = s.sent, s.failed
	windowMB := mb(float64(w.bytesUpTo(writtenB) - w.bytesUpTo(writtenA)))
	p99 := quantile(s.latency, 0.99)
	report["setup_s"] = metric{median(seconds(setups)), "s"}
	report["time_to_profile_s"] = metric{median(s.publishLag) / 1e3, "s"}
	report["alloc_mb_per_input_mb"] = metric{ratio(mb(float64(mB.TotalAlloc-mA.TotalAlloc)), windowMB), "MB/MB"}
	report["retained_heap_mb"] = metric{retained, "MB"}
	report["cpu_s_per_input_mb"] = metric{ratio((cpuB - cpuA).Seconds(), windowMB), "s/MB"}
	report["http_p50_ms"] = metric{median(s.latency), "ms"}
	report["http_p99_ms"] = metric{p99, "ms"}
	report["freshness_p50_ms"] = metric{median(s.freshness), "ms"}
	report["freshness_p99_ms"] = metric{quantile(s.freshness, 0.99), "ms"}
	report["fail_ratio"] = metric{ratio(float64(s.failed), float64(s.sent)), "ratio"}
	report["loadgen.late_p99_ms"] = metric{s.lateP99, "ms"}
	report["service.cache_hit_ratio"] = metric{s.hitRatio, "ratio"}
	rec["http_samples"] = len(s.latency)
	rec["http_failures"] = s.failures
	rec["freshness_samples"] = len(s.freshness)
	rec["publish_lag_samples"] = len(s.publishLag)
	rec["publish_lag_ms_quartiles"] = quartiles(s.publishLag)
	rec["p99_within_limit"] = p99 <= p99LimitMS && s.failed == 0

	if o.Trace {
		// The ladder runs on the complete live capture, after the
		// service is gone.
		out, err := ladderOn(t, ladderConfig{
			path:      filepath.Join(dir, "live.pcap"),
			historian: true,
			shards:    1,
			readers:   1,
			engine:    liveEngine,
			preset:    livePreset,
			work:      o.Work,
		}, report)
		if err != nil {
			return nil, err
		}
		res.Problems = append(res.Problems, checkCount("pipeline rung packets", int64(out.final.Packets), int64(total))...)
		res.Spans = t.spans
	}
	res.Report = report
	res.finish(o)
	return res, nil
}

// hostOn starts a control room whose live tenant follows a fresh
// capture under dir.
func hostOn(dir string, header []byte, conns int) (*host, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	path, err := emptyCapture(dir, header)
	if err != nil {
		return nil, 0, err
	}
	return startHost(liveConfig(path, filepath.Join(dir, "hist")), conns)
}
