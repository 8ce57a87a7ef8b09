package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"uncharted/internal/scadasim"
	"uncharted/internal/topology"
)

// capture is one synthesized input file.
type capture struct {
	Path    string
	Bytes   int64
	Records int
}

// y1Config is the Y1 campaign at scale times the paper's 40-minute
// default duration.
func y1Config(seed int64, scale float64) scadasim.Config {
	cfg := scadasim.DefaultConfig(topology.Y1, seed)
	cfg.Duration = time.Duration(float64(cfg.Duration) * scale)
	return cfg
}

// synthesize runs the simulator and writes the classic pcap file. The
// simulator's garbage is collected and returned to the OS before the
// caller measures anything.
func synthesize(cfg scadasim.Config, path string) (capture, error) {
	sim, err := scadasim.New(cfg)
	if err != nil {
		return capture{}, err
	}
	tr, err := sim.Run()
	if err != nil {
		return capture{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return capture{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := tr.WritePCAP(bw); err != nil {
		f.Close()
		return capture{}, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return capture{}, err
	}
	if err := f.Close(); err != nil {
		return capture{}, err
	}
	c := capture{Path: path, Records: len(tr.Records)}
	runtime.GC()
	debug.FreeOSMemory()
	c.Bytes, err = preRead(path)
	return c, err
}

// preRead reads the whole file once so every timed pass starts from a
// warm page cache, and returns its size.
func preRead(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return io.Copy(io.Discard, f)
}

// describe adds the input description to a record.
func (c capture) describe(rec map[string]any) {
	rec["capture_bytes"] = c.Bytes
	rec["capture_records"] = c.Records
	rec["page_cache_prewarmed"] = true
}
