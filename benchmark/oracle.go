package main

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"time"

	"uncharted/internal/core"
	"uncharted/internal/drift"
	"uncharted/internal/historian"
	"uncharted/internal/protocol"
)

// The oracles below are the output equalities that hold by design. They
// run outside every timed window and report mismatches as text; any
// mismatch fails the run.

// savedAt pins the drift container's timestamp so encodings depend on
// the analysis alone.
var savedAt = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// encodePartial is the byte form the oracles compare.
func encodePartial(p core.Partial) []byte {
	return drift.NewProfile("benchmark", "capture", p, savedAt).Encode()
}

// checkEncoding requires got to encode byte-identically to want.
func checkEncoding(what string, got core.Partial, want []byte) []string {
	enc := encodePartial(got)
	if bytes.Equal(enc, want) {
		return nil
	}
	return []string{fmt.Sprintf("%s: drift encoding differs (%d bytes, oracle %d bytes)", what, len(enc), len(want))}
}

// checkShardInvariant compares the aggregates that are equal at every
// shard and reader count: a sharded run may pin an endpoint's dialect at
// a different frame (so StrictInvalid tallies and the encoding differ),
// but never these.
func checkShardInvariant(want, got core.Partial) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if got.Packets != want.Packets || got.IECPackets != want.IECPackets {
		fail("packets %d/%d, offline %d/%d", got.Packets, got.IECPackets, want.Packets, want.IECPackets)
	}
	if got.TotalASDUs != want.TotalASDUs {
		fail("ASDUs %d, offline %d", got.TotalASDUs, want.TotalASDUs)
	}
	if !got.First.Equal(want.First) || !got.Last.Equal(want.Last) {
		fail("window [%v %v], offline [%v %v]", got.First, got.Last, want.First, want.Last)
	}
	gf, wf := got.Flows, want.Flows
	if gf.ShortLived != wf.ShortLived || gf.LongLived != wf.LongLived ||
		gf.ShortLivedSubSec != wf.ShortLivedSubSec || gf.ShortLivedOverSec != wf.ShortLivedOverSec ||
		len(gf.ShortLivedDuration) != len(wf.ShortLivedDuration) {
		fail("flow summary differs from offline")
	}
	if !reflect.DeepEqual(got.TypeCounts, want.TypeCounts) {
		fail("type counts %v, offline %v", got.TypeCounts, want.TypeCounts)
	}
	gc, wc := got.ComplianceReport(), want.ComplianceReport()
	if !reflect.DeepEqual(gc.NonCompliant, wc.NonCompliant) {
		fail("non-compliant %v, offline %v", gc.NonCompliant, wc.NonCompliant)
	}
	if g, w := stationFrames(gc), stationFrames(wc); !reflect.DeepEqual(g, w) {
		fail("per-station frames %v, offline %v", g, w)
	}
	gm, wm := got.MarkovReport(), want.MarkovReport()
	if !reflect.DeepEqual(sorted(gm.Point11), sorted(wm.Point11)) ||
		!reflect.DeepEqual(sorted(gm.Square), sorted(wm.Square)) ||
		!reflect.DeepEqual(sorted(gm.Ellipse), sorted(wm.Ellipse)) {
		fail("Fig. 13 membership differs from offline")
	}
	return bad
}

func stationFrames(r core.ComplianceReport) map[string]int {
	out := make(map[string]int, len(r.Stations))
	for _, sc := range r.Stations {
		out[sc.Name] = sc.Frames
	}
	return out
}

func sorted(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

// iec104Samples counts the IEC 104 physical samples, commands
// included: exactly what the historian recorder stores.
func iec104Samples(p core.Partial) int64 {
	var n int64
	for _, d := range p.Physical {
		if d.Type.Proto() == protocol.IEC104 {
			n += int64(d.Count)
		}
	}
	return n
}

// historianSamples reopens a closed historian and totals its catalog.
func historianSamples(dir string) (int64, error) {
	st, err := historian.Open(dir, historian.Options{})
	if err != nil {
		return 0, err
	}
	var n int64
	for _, pi := range st.Catalog() {
		n += pi.Samples
	}
	return n, st.Close()
}

// checkCount requires got == want for a named count.
func checkCount(what string, got, want int64) []string {
	if got == want {
		return nil
	}
	return []string{fmt.Sprintf("%s: got %d, want %d", what, got, want)}
}
