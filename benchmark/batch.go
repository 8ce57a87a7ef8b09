package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/pipeline"
	"uncharted/internal/scadasim"
	"uncharted/internal/stream"
	"uncharted/internal/topology"
)

// batchSpec describes one finished-capture workload.
type batchSpec struct {
	// scale multiplies the paper's 40-minute Y1 capture.
	scale float64
	// sim returns the simulator settings for a seed and scale.
	sim func(seed int64, scale float64) scadasim.Config
	// preset is the ProfilerGraph the workload runs; histDir is empty
	// unless the workload records into a historian.
	preset    func(path, histDir string) pipeline.ProfilerPreset
	historian bool
	// names labels endpoints with the topology's names.
	names bool
	// engine is the hand-wired stream configuration equivalent to the
	// preset at shards shards and readers readers, for the ladder.
	engine func(shards, readers int) stream.Config
	// oracle derives the expected output from the capture, untimed.
	oracle func(c capture) (batchOracle, error)
}

// batchOracle is the expected output of every pass.
type batchOracle struct {
	// encoding is the drift encoding the final Partial must match.
	encoding []byte
	// offline, when set, must agree with the final Partial on every
	// shard-invariant aggregate.
	offline *core.Partial
	// samples, when non-negative, is the historian catalog total.
	samples int64
}

var y1Offline = batchSpec{
	scale: 2,
	sim:   y1Config,
	preset: func(path, _ string) pipeline.ProfilerPreset {
		return pipeline.ProfilerPreset{Path: path, Workers: shards(), Readers: shards(), Names: true}
	},
	names: true,
	engine: func(shards, readers int) stream.Config {
		return stream.Config{Workers: shards, Readers: readers, ClusterK: 5, ClusterSeed: 1202,
			Names: core.NamesFromTopology(topology.Build())}
	},
	oracle: func(c capture) (batchOracle, error) {
		// The same shard count with one reader: the segmented handoff
		// must not change a byte.
		eng := stream.New(stream.Config{Workers: shards(), Readers: 1, Names: core.NamesFromTopology(topology.Build())})
		if err := runEngine(eng, c.Path); err != nil {
			return batchOracle{}, err
		}
		off, err := offlinePartial(c.Path, core.NewAnalyzer(core.NamesFromTopology(topology.Build())))
		if err != nil {
			return batchOracle{}, err
		}
		return batchOracle{encoding: encodePartial(eng.Final()), offline: &off, samples: -1}, nil
	},
}

var mixedHistorian = batchSpec{
	scale: 2,
	sim: func(seed int64, scale float64) scadasim.Config {
		cfg := y1Config(seed, scale)
		cfg.EnableModbus = true
		cfg.Faults = scadasim.Faults{TimeoutProb: 0.01, ShortReadProb: 0.02}
		return cfg
	},
	preset: func(path, histDir string) pipeline.ProfilerPreset {
		return pipeline.ProfilerPreset{Path: path, Workers: 1, Readers: 1, Protocols: "auto", HistorianDir: histDir}
	},
	historian: true,
	engine: func(shards, readers int) stream.Config {
		return stream.Config{Workers: shards, Readers: readers, ClusterK: 5, ClusterSeed: 1202, Protocols: []string{"auto"}}
	},
	oracle: func(c capture) (batchOracle, error) {
		a := core.NewAnalyzer(nil)
		a.EnableProtocolDetect()
		off, err := offlinePartial(c.Path, a)
		if err != nil {
			return batchOracle{}, err
		}
		merged := core.MergePartials([]core.Partial{off})
		return batchOracle{encoding: encodePartial(merged), samples: iec104Samples(merged)}, nil
	},
}

func runY1Offline(ctx context.Context, o options) (*result, error) {
	return runBatch(ctx, o, y1Offline)
}

func runMixedHistorian(ctx context.Context, o options) (*result, error) {
	return runBatch(ctx, o, mixedHistorian)
}

// runEngine drives a hand-wired engine over a capture file.
func runEngine(eng *stream.Engine, path string) error {
	src, err := stream.NewFileSource(path)
	if err != nil {
		return err
	}
	err = eng.Run(context.Background(), src)
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	return err
}

// offlinePartial runs the classic single-analyzer path over a capture.
func offlinePartial(path string, a *core.Analyzer) (core.Partial, error) {
	f, err := os.Open(path)
	if err != nil {
		return core.Partial{}, err
	}
	defer f.Close()
	if err := a.ReadPCAP(bufio.NewReaderSize(f, 1<<20)); err != nil {
		return core.Partial{}, err
	}
	return a.Partial(), nil
}

// quiet discards the runner's operator log lines.
func quiet(string, ...any) {}

// pass is one timed run of the workload's graph.
type pass struct {
	setup    time.Duration
	ingest   time.Duration
	profile  time.Duration
	allocMB  float64
	retained float64
	packets  int
	// cpu is the process CPU time from Run to the rendered profile.
	cpu time.Duration
	// gcs counts the collections during the pass; baseMB is the live
	// heap it started from.
	gcs    uint32
	baseMB float64
}

// runPass builds and runs the workload's graph once. Set-up is
// NewRunner (config validation, segment build, historian open); ingest
// ends when Run returns, which is when the final Partial is available;
// the profile is done once the final Profile is rendered to JSON.
func runPass(ctx context.Context, spec batchSpec, path, histDir string) (pass, core.Partial, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	start := time.Now()
	graph, hooks := pipeline.ProfilerGraph(spec.preset(path, histDir))
	runner, err := pipeline.NewRunner(graph, pipeline.Options{Logf: quiet, Hooks: hooks})
	if err != nil {
		return pass{}, core.Partial{}, err
	}
	var p pass
	p.setup = time.Since(start)
	seg := runner.Segment("profiler", "an").(*pipeline.AnalyzerSegment)

	cpu0 := cpuTime()
	start = time.Now()
	if err := runner.Run(ctx); err != nil {
		return pass{}, core.Partial{}, err
	}
	p.ingest = time.Since(start)
	prof := seg.Engine().Profile()
	if prof == nil {
		return pass{}, core.Partial{}, fmt.Errorf("no final profile published")
	}
	var buf bytes.Buffer
	if err := prof.WriteJSON(&buf); err != nil {
		return pass{}, core.Partial{}, err
	}
	p.profile = time.Since(start)
	p.cpu = cpuTime() - cpu0

	runtime.ReadMemStats(&m1)
	p.allocMB = mb(float64(m1.TotalAlloc - m0.TotalAlloc))
	p.gcs, p.baseMB = m1.NumGC-m0.NumGC, mb(float64(m0.HeapAlloc))
	final := seg.Engine().Final()
	p.packets = final.Packets
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.retained = mb(float64(m1.HeapAlloc) - float64(m0.HeapAlloc))
	runtime.KeepAlive(seg)
	runtime.KeepAlive(prof)
	return p, final, nil
}

// setupOnly times NewRunner alone, then closes the historian it opened
// and removes its directory, so every sample opens a fresh one.
func setupOnly(spec batchSpec, path, histDir string) (time.Duration, error) {
	start := time.Now()
	graph, hooks := pipeline.ProfilerGraph(spec.preset(path, histDir))
	runner, err := pipeline.NewRunner(graph, pipeline.Options{Logf: quiet, Hooks: hooks})
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	if h := runner.Segment("profiler", "an").(*pipeline.AnalyzerSegment).Historian(); h != nil {
		if err := h.Close(); err != nil {
			return 0, err
		}
	}
	if histDir != "" {
		if err := os.RemoveAll(histDir); err != nil {
			return 0, err
		}
	}
	return d, nil
}

// setupsPerPass is how many extra set-ups a batch run times after each
// pass. A set-up takes under a millisecond, so one alone is scheduler
// and file-system noise; a few hundred, spread over the window like
// the passes, give a median that moves only with the machine.
const setupsPerPass = 32

// runBatch synthesizes the capture, computes the oracle, then repeats
// timed passes for the window and reports medians.
func runBatch(ctx context.Context, o options, spec batchSpec) (*result, error) {
	rec := machineRecord(o)
	scale := spec.scale
	if o.Smoke {
		scale = 0.05
	}
	c, err := synthesize(spec.sim(o.Seed, scale), filepath.Join(o.Work, "capture.pcap"))
	if err != nil {
		return nil, err
	}
	rec["scale"] = scale
	c.describe(rec)
	preset := spec.preset(c.Path, "")
	rec["workers"], rec["readers"], rec["protocols"], rec["historian"] = preset.Workers, preset.Readers, preset.Protocols, spec.historian

	if o.Trace {
		return runLadder(o, spec, c, rec)
	}

	oracle, err := spec.oracle(c)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	res := &result{Record: rec}
	histDir := func(name string) string {
		if !spec.historian {
			return ""
		}
		return filepath.Join(o.Work, name)
	}

	var setups []time.Duration
	extra := setupsPerPass
	if o.Smoke {
		extra = 2
	}
	var ttp, ingest, alloc, retained, cpu, base []float64
	var gcs []uint32
	steal := startSteal()
	end := deadline(o)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		dir := histDir(fmt.Sprintf("pass-%d", i))
		p, final, err := runPass(ctx, spec, c.Path, dir)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		setups = append(setups, p.setup)
		ttp = append(ttp, p.profile.Seconds())
		ingest = append(ingest, mb(float64(c.Bytes))/p.ingest.Seconds())
		alloc = append(alloc, p.allocMB/mb(float64(c.Bytes)))
		cpu = append(cpu, p.cpu.Seconds()/mb(float64(c.Bytes)))
		gcs = append(gcs, p.gcs)
		base = append(base, p.baseMB)
		retained = append(retained, p.retained)
		res.Attempted += int64(c.Records)
		if lost := int64(c.Records - p.packets); lost > 0 {
			res.Failed += lost
		}

		// Oracles, untimed.
		what := fmt.Sprintf("pass %d", i)
		res.Problems = append(res.Problems, checkEncoding(what, final, oracle.encoding)...)
		if oracle.offline != nil {
			for _, msg := range checkShardInvariant(*oracle.offline, final) {
				res.Problems = append(res.Problems, what+": "+msg)
			}
		}
		if oracle.samples >= 0 {
			n, err := historianSamples(dir)
			if err != nil {
				return nil, err
			}
			res.Problems = append(res.Problems, checkCount(what+": historian catalog samples", n, oracle.samples)...)
		}
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		for k := 0; k < extra; k++ {
			d, err := setupOnly(spec, c.Path, histDir("setup"))
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
	}
	rec["host_steal_share"] = steal.share()
	rec["passes"] = len(ttp)
	rec["time_to_profile_s_per_pass"] = ttp
	rec["setup_samples"] = len(setups)
	rec["setup_s_quartiles"] = quartiles(seconds(setups))
	rec["gc_cycles_per_pass"] = gcs
	rec["base_heap_mb_per_pass"] = base

	res.Report = map[string]metric{
		"setup_s":               {median(seconds(setups)), "s"},
		"time_to_profile_s":     {median(ttp), "s"},
		"ingest_mb_per_s":       {median(ingest), "MB/s"},
		"alloc_mb_per_input_mb": {median(alloc), "MB/MB"},
		"cpu_s_per_input_mb":    {median(cpu), "s/MB"},
		"retained_heap_mb":      {median(retained), "MB"},
		"fail_ratio":            {ratio(float64(res.Failed), float64(res.Attempted)), "ratio"},
	}
	res.finish(o)
	return res, nil
}
