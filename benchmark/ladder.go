package main

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/historian"
	"uncharted/internal/iec104"
	"uncharted/internal/markov"
	"uncharted/internal/obs"
	"uncharted/internal/pcap"
	"uncharted/internal/physical"
	"uncharted/internal/pipeline"
	"uncharted/internal/protocol"
	"uncharted/internal/stream"
	"uncharted/internal/tcpflow"
	"uncharted/internal/topology"
)

// The ladder times calls into each layer's public functions on the
// workload's own capture, one span per batch of calls. Each rung's
// input is prepared, untimed, by the rung below it: records by the
// reader, packets by the decoder, reassembled payloads by the flow
// tracker, ASDUs by the parser.

// batch is how many calls one span covers.
const batch = 4096

// ladderConfig says how the workload analyzes its capture.
type ladderConfig struct {
	path string
	// names labels endpoints with the topology's names.
	names bool
	// protocols decodes every registered dialect (protocol "auto").
	protocols bool
	// historian records measurements on the workload's path.
	historian bool
	// shards and readers are the workload's engine widths.
	shards, readers int
	// engine is the hand-wired stream configuration of the workload;
	// preset is its ProfilerGraph.
	engine func(shards, readers int) stream.Config
	preset func(path, histDir string) pipeline.ProfilerPreset
	// work is the scratch directory for historians.
	work string
}

// ladderOut is what later rungs and the service rung reuse.
type ladderOut struct {
	// parts are the per-shard partials of the core rung.
	parts []core.Partial
	// final is the pipeline rung's final Partial, and samples its
	// historian's catalog total (-1 without a historian), for the
	// oracle.
	final   core.Partial
	samples int64
}

// liveEngine and livePreset are the control room's live analysis as a
// hand-wired engine and as a graph.
func liveEngine(shards, readers int) stream.Config {
	return stream.Config{Workers: shards, Readers: readers, ClusterK: 5, ClusterSeed: 1202}
}

func livePreset(path, histDir string) pipeline.ProfilerPreset {
	return pipeline.ProfilerPreset{Path: path, Workers: 1, HistorianDir: histDir}
}

// record is one captured frame, its bytes held in the ladder's arena.
type record struct {
	ci   pcap.CaptureInfo
	data []byte
}

// payload is one reassembled stream chunk, copied out of the tracker.
type payload struct {
	src, dst netip.AddrPort
	at       time.Time
	data     []byte
}

// asduAt is one parsed ASDU with what physical.Store.Feed needs.
type asduAt struct {
	station string
	asdu    *iec104.ASDU
	at      time.Time
	command bool
}

// collector copies reassembled payloads out of a tracker, split by
// dialect.
type collector struct {
	iec     []payload
	dialect []payload
}

func (c *collector) OnPayload(sp tcpflow.StreamPayload) {
	if sp.Retransmit || len(sp.Data) == 0 {
		return
	}
	p := payload{src: sp.Src, dst: sp.Dst, at: sp.Time, data: append([]byte(nil), sp.Data...)}
	switch {
	case sp.Src.Port() == core.IEC104Port || sp.Dst.Port() == core.IEC104Port:
		c.iec = append(c.iec, p)
	case dialectOf(p) != nil:
		c.dialect = append(c.dialect, p)
	}
}

// dialectOf returns the registered non-IEC-104 dialect owning a
// payload's port, or nil.
func dialectOf(p payload) protocol.Dialect {
	for _, port := range []uint16{p.src.Port(), p.dst.Port()} {
		if d := protocol.ByPort(port); d != nil && d.ID() != protocol.IEC104 {
			return d
		}
	}
	return nil
}

// counter is the tracker consumer whose cost is nil, so Tracker.Feed
// is timed alone.
type counter struct{ payloads, retransmits int64 }

func (c *counter) OnPayload(sp tcpflow.StreamPayload) {
	c.payloads++
	if sp.Retransmit {
		c.retransmits++
	}
}

func (lc ladderConfig) nameMap() map[netip.Addr]string {
	if !lc.names {
		return nil
	}
	return core.NamesFromTopology(topology.Build())
}

func (lc ladderConfig) analyzer(names map[netip.Addr]string) *core.Analyzer {
	a := core.NewAnalyzer(names)
	if lc.protocols {
		a.EnableProtocolDetect()
	}
	return a
}

// ladderOn runs every rung once on lc's capture, recording spans into
// t and metrics into report.
func ladderOn(t *tracer, lc ladderConfig, report map[string]metric) (ladderOut, error) {
	set := func(name string, v float64, unit string) { report[name] = metric{v, unit} }
	names := lc.nameMap()

	// pcap: read, decode, plan.
	rung := t.begin("pcap", 0)
	f, err := os.Open(lc.path)
	if err != nil {
		return ladderOut{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return ladderOut{}, err
	}
	readTime, n, err := timeReads(t, rung, f)
	if err != nil {
		return ladderOut{}, err
	}
	recs, link, err := loadRecords(f, fi.Size(), n)
	if err != nil {
		return ladderOut{}, err
	}
	pkts := make([]pcap.Packet, len(recs))
	decode := func(lo, hi int) int64 {
		for i := lo; i < hi; i++ {
			p, err := pcap.DecodePacket(link, recs[i].ci, recs[i].data)
			if err != nil {
				p = pcap.Packet{}
			}
			pkts[i] = p
		}
		return int64(hi - lo)
	}
	// An untimed pass first touches every page of pkts, so the timed
	// pass measures decoding, not page faults.
	decode(0, len(recs))
	decodeTime, _ := t.batches(rung, "pcap.DecodePacket", len(recs), batch, decode)
	pkts = decodedOnly(pkts)
	var segs int
	planTime := t.timed(rung, "pcap.PlanSegments", func() int64 {
		plan, err := pcap.PlanSegments(f, fi.Size(), lc.shards)
		if err == nil {
			segs = plan.Len()
		}
		return int64(segs)
	})
	t.end(rung, int64(len(recs)))
	set("pcap.read_ns_per_record", nsPer(readTime, n), "ns")
	set("pcap.decode_ns_per_record", nsPer(decodeTime, int64(len(recs))), "ns")
	set("pcap.plan_ms", float64(planTime)/1e6, "ms")
	set("pcap.records", float64(len(recs)), "count")

	// tcpflow: Tracker.Feed with a counting consumer, then an untimed
	// pass that copies the payloads out for the rungs above.
	rung = t.begin("tcpflow", 0)
	cnt := &counter{}
	tr := tcpflow.NewTracker(cnt)
	flowTime, _ := t.batches(rung, "tcpflow.Tracker.Feed", len(pkts), batch, func(lo, hi int) int64 {
		for i := lo; i < hi; i++ {
			tr.Feed(pkts[i])
		}
		return int64(hi - lo)
	})
	t.end(rung, int64(len(pkts)))
	col := &collector{}
	tr = tcpflow.NewTracker(col)
	for i := range pkts {
		tr.Feed(pkts[i])
	}
	set("tcpflow.feed_ns_per_packet", nsPer(flowTime, int64(len(pkts))), "ns")
	set("tcpflow.payloads", float64(cnt.payloads), "count")
	set("tcpflow.retransmits", float64(cnt.retransmits), "count")
	set("trace.overhead_ratio", traceOverhead(link, recs, pkts), "ratio")

	// core: whole analyzers, one per shard, fed their IP pairs'
	// packets; then OnPayload behind a standalone tracker, and the
	// partial, merge and cluster steps.
	rung = t.begin("core", 0)
	ans := make([]*core.Analyzer, lc.shards)
	byShard := make([][]int, lc.shards)
	for i := range ans {
		ans[i] = lc.analyzer(names)
	}
	for i := range pkts {
		s := pairShard(pkts[i].IP.Src, pkts[i].IP.Dst, lc.shards)
		byShard[s] = append(byShard[s], i)
	}
	var feedTime time.Duration
	for s, idx := range byShard {
		d, _ := t.batches(rung, "core.Analyzer.FeedPacket", len(idx), batch, func(lo, hi int) int64 {
			for _, i := range idx[lo:hi] {
				ans[s].FeedPacket(pkts[i])
			}
			return int64(hi - lo)
		})
		feedTime += d
	}
	standalone := lc.analyzer(names)
	tr = tcpflow.NewTracker(standalone)
	withPayload, _ := t.batches(rung, "tcpflow.Tracker.Feed+core.Analyzer.OnPayload", len(pkts), batch, func(lo, hi int) int64 {
		for i := lo; i < hi; i++ {
			tr.Feed(pkts[i])
		}
		return int64(hi - lo)
	})
	parts := make([]core.Partial, len(ans))
	partialTime := t.timed(rung, "core.Analyzer.Partial", func() int64 {
		for i, a := range ans {
			parts[i] = a.Partial()
		}
		return int64(len(ans))
	})
	var merged core.Partial
	mergeTime := t.timed(rung, "core.MergePartials", func() int64 {
		merged = core.MergePartials(parts)
		return int64(len(parts))
	})
	clusterTime := t.timed(rung, "core.Partial.ClusterReport", func() int64 {
		rep, err := merged.ClusterReport(5, 1202)
		if err != nil {
			return 0
		}
		return int64(len(rep.Assign))
	})
	t.end(rung, int64(len(pkts)))
	set("core.feed_ns_per_packet", nsPer(feedTime, int64(len(pkts))), "ns")
	set("core.onpayload_ns_per_call", nsPer(withPayload-flowTime, cnt.payloads), "ns")
	set("core.partial_ms", float64(partialTime)/1e6, "ms")
	set("core.merge_ms", float64(mergeTime)/1e6, "ms")
	set("core.cluster_ms", float64(clusterTime)/1e6, "ms")

	// markov: Chain.Add over every connection's token stream.
	rung = t.begin("markov", 0)
	var seqs [][]iec104.Token
	for _, a := range ans {
		for _, k := range a.ConnKeys() {
			seqs = append(seqs, a.TokenStream(k))
		}
	}
	var tokens int64
	chainTime, _ := t.batches(rung, "markov.Chain.Add", len(seqs), 64, func(lo, hi int) int64 {
		var k int64
		for _, seq := range seqs[lo:hi] {
			markov.NewChain().Add(seq)
			k += int64(len(seq))
		}
		tokens += k
		return k
	})
	t.end(rung, tokens)
	set("markov.add_ns_per_token", nsPer(chainTime, tokens), "ns")

	// The packet rungs are done with the records and packets.
	recs, pkts = nil, nil

	// iec104: TolerantParser.Parse over the reassembled payloads.
	rung = t.begin("iec104", 0)
	tp := iec104.NewTolerantParser()
	var frames, parseErrs int64
	var asdus []asduAt
	parseTime, _ := t.batches(rung, "iec104.TolerantParser.Parse", len(col.iec), batch, func(lo, hi int) int64 {
		var k int64
		for _, p := range col.iec[lo:hi] {
			apdus, err := tp.Parse(p.src.String(), p.data)
			if err != nil {
				parseErrs++
			}
			k += int64(len(apdus))
			for _, a := range apdus {
				if a.ASDU != nil {
					asdus = append(asdus, asduAt{asdu: a.ASDU, at: p.at, command: p.dst.Port() == core.IEC104Port,
						station: stationName(names, p)})
				}
			}
		}
		frames += k
		return k
	})
	t.end(rung, frames)
	set("iec104.parse_ns_per_frame", nsPer(parseTime, frames), "ns")
	set("iec104.frames", float64(frames), "count")
	set("iec104.parse_errors", float64(parseErrs), "count")

	// protocol: each dialect's Session.Next over its payloads.
	rung = t.begin("protocol", 0)
	protoTime, perDialect := timeDialects(t, rung, col.dialect)
	var protoFrames int64
	for _, c := range perDialect {
		protoFrames += c
	}
	t.end(rung, protoFrames)
	set("protocol.next_ns_per_frame", nsPer(protoTime, protoFrames), "ns")
	set("protocol.c37118.frames", float64(perDialect[protocol.C37118]), "count")
	set("protocol.modbus.frames", float64(perDialect[protocol.Modbus]), "count")

	// physical: Store.Feed over the parsed ASDUs.
	rung = t.begin("physical", 0)
	store := physical.NewStore()
	physTime, _ := t.batches(rung, "physical.Store.Feed", len(asdus), batch, func(lo, hi int) int64 {
		for _, a := range asdus[lo:hi] {
			store.Feed(a.station, a.asdu, a.at, a.command)
		}
		return int64(hi - lo)
	})
	t.end(rung, int64(len(asdus)))
	set("physical.feed_ns_per_asdu", nsPer(physTime, int64(len(asdus))), "ns")
	set("physical.series", float64(len(store.All())), "count")

	// historian: Append every IEC 104 sample, Flush+Sync, Query every
	// point.
	appendTime, err := historianRung(t, lc, asdus, report)
	if err != nil {
		return ladderOut{}, err
	}

	// The rungs above are done with the payloads and ASDUs.
	col, asdus = nil, nil

	// drift: the merged partial through the profile codec.
	rung = t.begin("drift", 0)
	var enc []byte
	encTime := t.timed(rung, "drift.Profile.Encode", func() int64 {
		enc = drift.NewProfile("benchmark", "ladder", merged, savedAt).Encode()
		return int64(len(enc))
	})
	decTime := t.timed(rung, "drift.DecodeProfile", func() int64 {
		if _, err := drift.DecodeProfile(enc); err != nil {
			return 0
		}
		return int64(len(enc))
	})
	t.end(rung, 2)
	set("drift.encode_ms", float64(encTime)/1e6, "ms")
	set("drift.decode_ms", float64(decTime)/1e6, "ms")

	// stream: the hand-wired engine at the workload's widths, and at
	// one shard and one reader for the ladder's unexplained share.
	rung = t.begin("stream", 0)
	run, err := streamRung(t, rung, lc, lc.shards, lc.readers, report)
	if err != nil {
		return ladderOut{}, err
	}
	one := run
	if lc.shards != 1 || lc.readers != 1 {
		if one, err = streamRung(t, rung, lc, 1, 1, nil); err != nil {
			return ladderOut{}, err
		}
	}
	t.end(rung, 0)
	explained := readTime + decodeTime + feedTime
	if lc.historian {
		explained += appendTime
	}
	set("ladder.unexplained_share", 1-ratio(float64(explained), float64(one)), "ratio")

	// pipeline: the workload's own graph over the same capture.
	rung = t.begin("pipeline", 0)
	out := ladderOut{parts: parts}
	pipeRun, stalls, err := pipelineRung(t, rung, lc, &out)
	if err != nil {
		return ladderOut{}, err
	}
	t.end(rung, 0)
	set("pipeline.run_s", pipeRun.Seconds(), "s")
	set("pipeline.overhead_ratio", ratio(float64(pipeRun), float64(run)), "ratio")
	set("pipeline.stalls", float64(stalls), "count")
	return out, nil
}

// traceOverhead is what the spans cost: the wall time of the decode
// and flow-tracking rungs run traced, over the same rungs run with a
// nil tracer. Both rungs only read their inputs, so they can repeat.
// One untimed run warms every buffer; then untraced and traced runs
// alternate, five of each, and the ratio is of their medians.
func traceOverhead(link pcap.LinkType, recs []record, pkts []pcap.Packet) float64 {
	run := func(t *tracer) float64 {
		start := time.Now()
		var sink pcap.Packet
		t.batches(0, "pcap.DecodePacket", len(recs), batch, func(lo, hi int) int64 {
			for i := lo; i < hi; i++ {
				sink, _ = pcap.DecodePacket(link, recs[i].ci, recs[i].data)
			}
			return int64(hi - lo)
		})
		tr := tcpflow.NewTracker(&counter{})
		t.batches(0, "tcpflow.Tracker.Feed", len(pkts), batch, func(lo, hi int) int64 {
			for i := lo; i < hi; i++ {
				tr.Feed(pkts[i])
			}
			return int64(hi - lo)
		})
		runtime.KeepAlive(sink)
		return float64(time.Since(start))
	}
	run(nil)
	var plain, traced []float64
	for i := 0; i < 5; i++ {
		if i%2 == 0 {
			plain = append(plain, run(nil))
			traced = append(traced, run(newTracer()))
		} else {
			traced = append(traced, run(newTracer()))
			plain = append(plain, run(nil))
		}
	}
	return ratio(median(traced), median(plain))
}

// stationName is the outstation side of an IEC 104 payload, named the
// way the analyzer names it.
func stationName(names map[netip.Addr]string, p payload) string {
	addr := p.src.Addr()
	if p.dst.Port() == core.IEC104Port {
		addr = p.dst.Addr()
	}
	if n, ok := names[addr]; ok {
		return n
	}
	return addr.String()
}

// timeReads times Reader.ReadPacketInto over the whole capture.
func timeReads(t *tracer, parent int, f *os.File) (time.Duration, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	pr, err := pcap.NewReader(f)
	if err != nil {
		return 0, 0, err
	}
	var total time.Duration
	var n int64
	var scratch []byte
	for done := false; !done; {
		id := t.begin("pcap.Reader.ReadPacketInto", parent)
		start := time.Now()
		var k int64
		for ; k < batch; k++ {
			data, _, err := pr.ReadPacketInto(scratch)
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				return 0, 0, err
			}
			scratch = data
		}
		total += time.Since(start)
		t.end(id, k)
		n += k
	}
	return total, n, nil
}

// loadRecords reads every record into one arena, untimed.
func loadRecords(f *os.File, size, n int64) ([]record, pcap.LinkType, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	pr, err := pcap.NewReader(f)
	if err != nil {
		return nil, 0, err
	}
	arena := make([]byte, 0, size)
	recs := make([]record, 0, n)
	for {
		data, ci, err := pr.ReadPacketInto(nil)
		if err == io.EOF {
			return recs, pr.LinkType(), nil
		}
		if err != nil {
			return nil, 0, err
		}
		off := len(arena)
		arena = append(arena, data...)
		recs = append(recs, record{ci: ci, data: arena[off:len(arena):len(arena)]})
	}
}

// decodedOnly drops the records DecodePacket rejected, which the decode
// loop left as zero packets.
func decodedOnly(pkts []pcap.Packet) []pcap.Packet {
	out := pkts[:0]
	for _, p := range pkts {
		if p.IP.Src.IsValid() {
			out = append(out, p)
		}
	}
	return out
}

// timeDialects drives one session per flow of every non-IEC-104
// dialect through its payloads and counts frames per dialect.
func timeDialects(t *tracer, parent int, ps []payload) (time.Duration, map[protocol.ID]int64) {
	type dir struct {
		key  tcpflow.Key
		from bool
	}
	sessions := map[tcpflow.Key]protocol.Session{}
	bufs := map[dir][]byte{}
	frames := map[protocol.ID]int64{}
	d, _ := t.batches(parent, "protocol.Session.Next", len(ps), batch, func(lo, hi int) int64 {
		var k int64
		for _, p := range ps[lo:hi] {
			dl := dialectOf(p)
			key := tcpflow.MakeKey(p.src, p.dst)
			sess, ok := sessions[key]
			if !ok {
				sess = dl.NewSession()
				sessions[key] = sess
			}
			// The station is the client for dialects whose stations
			// dial out, the server otherwise.
			fromStation := (p.src.Port() == dl.Port()) != dl.StationInitiates()
			dk := dir{key, fromStation}
			buf := append(bufs[dk], p.data...)
			for {
				_, rest, _, ok := sess.Next(buf, fromStation)
				if !ok {
					break
				}
				frames[dl.ID()]++
				k++
				buf = rest
			}
			bufs[dk] = append([]byte(nil), buf...)
		}
		return k
	})
	return d, frames
}

// historianRung appends every IEC 104 sample into a fresh store, times
// Flush+Sync and one Query per point, and reports the compression.
func historianRung(t *tracer, lc ladderConfig, asdus []asduAt, report map[string]metric) (time.Duration, error) {
	type sample struct {
		key     historian.PointKey
		typ     physical.PointType
		command bool
		s       physical.Sample
	}
	var samples []sample
	for _, a := range asdus {
		typ := physical.IEC104Type(a.asdu.Type)
		physical.EachValue(a.asdu, a.at, func(ioa uint32, at time.Time, v float64) {
			samples = append(samples, sample{historian.PointKey{Station: a.station, IOA: ioa}, typ, a.command, physical.Sample{T: at, V: v}})
		})
	}
	dir := filepath.Join(lc.work, "ladder-hist")
	st, err := historian.Open(dir, historian.Options{})
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	rung := t.begin("historian", 0)
	var appendErr error
	appendTime, _ := t.batches(rung, "historian.Store.Append", len(samples), batch, func(lo, hi int) int64 {
		for _, s := range samples[lo:hi] {
			if err := st.Append(s.key, s.typ, s.command, s.s); err != nil && appendErr == nil {
				appendErr = err
			}
		}
		return int64(hi - lo)
	})
	if appendErr != nil {
		st.Close()
		return 0, appendErr
	}
	var flushErr error
	flushTime := t.timed(rung, "historian.Store.Flush+Sync", func() int64 {
		if flushErr = st.Flush(); flushErr == nil {
			flushErr = st.Sync()
		}
		return 1
	})
	if flushErr != nil {
		st.Close()
		return 0, flushErr
	}
	cat := st.Catalog()
	var stored int64
	for _, pi := range cat {
		stored += pi.Bytes
	}
	queryTime, _ := t.batches(rung, "historian.Store.Query", len(cat), 256, func(lo, hi int) int64 {
		for _, pi := range cat[lo:hi] {
			st.Query(pi.Key, time.Time{}, time.Time{})
		}
		return int64(hi - lo)
	})
	t.end(rung, int64(len(samples)))
	if err := st.Close(); err != nil {
		return 0, err
	}
	// A raw sample is a 64-bit timestamp and a 64-bit value.
	report["historian.append_ns_per_sample"] = metric{nsPer(appendTime, int64(len(samples))), "ns"}
	report["historian.flush_ms"] = metric{float64(flushTime) / 1e6, "ms"}
	report["historian.query_ms"] = metric{ratio(float64(queryTime)/1e6, float64(len(cat))), "ms"}
	report["historian.compression_ratio"] = metric{ratio(float64(16*len(samples)), float64(stored)), "ratio"}
	return appendTime, nil
}

// streamRung runs the hand-wired engine over the capture, sampling its
// status, and reports under stream.* when report is non-nil. It
// returns the run's wall time.
func streamRung(t *tracer, parent int, lc ladderConfig, shards, readers int, report map[string]metric) (time.Duration, error) {
	cfg := lc.engine(shards, readers)
	var st *historian.Store
	if lc.historian {
		var err error
		dir := filepath.Join(lc.work, fmt.Sprintf("stream-hist-%d-%d", shards, readers))
		if st, err = historian.Open(dir, historian.Options{}); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		cfg.Historian = st
	}
	eng := stream.New(cfg)

	// Sample the engine's status while it runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fill []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var l, c int
				for _, sh := range eng.Status().Shards {
					l, c = l+sh.QueueLen, c+sh.QueueCap
				}
				fill = append(fill, ratio(float64(l), float64(c)))
			}
		}
	}()
	var runErr error
	run := t.timed(parent, fmt.Sprintf("stream.Engine.Run[%dx%d]", shards, readers), func() int64 {
		runErr = runEngine(eng, lc.path)
		return 1
	})
	close(stop)
	wg.Wait()
	if st != nil {
		if err := st.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		return 0, runErr
	}
	if report == nil {
		return run, nil
	}
	final := eng.Final()
	publish := t.timed(parent, "stream.BuildProfile", func() int64 {
		stream.BuildProfile(final, 1, 5, 1202)
		return 1
	})
	var stalls int64
	for _, sh := range eng.Status().Shards {
		for _, n := range sh.Stalls {
			stalls += n
		}
	}
	fi, err := os.Stat(lc.path)
	if err != nil {
		return 0, err
	}
	report["stream.run_s"] = metric{run.Seconds(), "s"}
	report["stream.publish_ms"] = metric{float64(publish) / 1e6, "ms"}
	report["stream.stalls"] = metric{float64(stalls), "count"}
	report["stream.queue_fill"] = metric{median(fill), "ratio"}
	report["stream.reader_mb_per_s"] = metric{mb(float64(fi.Size())) / run.Seconds(), "MB/s"}
	return run, nil
}

// pipelineRung runs the workload's ProfilerGraph over the capture and
// returns its run time and the stalls Runner.Status reports; the
// output goes to out for the oracle.
func pipelineRung(t *tracer, parent int, lc ladderConfig, out *ladderOut) (time.Duration, int64, error) {
	histDir := ""
	if lc.historian {
		histDir = filepath.Join(lc.work, "pipeline-hist")
		defer os.RemoveAll(histDir)
	}
	graph, hooks := pipeline.ProfilerGraph(lc.preset(lc.path, histDir))
	runner, err := pipeline.NewRunner(graph, pipeline.Options{Registry: obs.NewRegistry(), Logf: quiet, Hooks: hooks})
	if err != nil {
		return 0, 0, err
	}
	var runErr error
	run := t.timed(parent, "pipeline.Runner.Run", func() int64 {
		runErr = runner.Run(context.Background())
		return 1
	})
	if runErr != nil {
		return 0, 0, runErr
	}
	var stalls int64
	for _, p := range runner.Status() {
		for _, s := range p.Segments {
			stalls += s.Stalls
		}
	}
	out.final = runner.Segment("profiler", "an").(*pipeline.AnalyzerSegment).Engine().Final()
	out.samples = -1
	if histDir != "" {
		if out.samples, err = historianSamples(histDir); err != nil {
			return 0, 0, err
		}
	}
	return run, stalls, nil
}
