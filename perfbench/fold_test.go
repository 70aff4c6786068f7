package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"runtime frames count toward the calling layer",
			[]string{"runtime.mapaccess2", "repro/internal/core.(*DisengagedFairQueueing).run", "repro/internal/sim.(*Proc).run"},
			"core"},
		{"packages outside the layer list pass through to their caller",
			[]string{"repro/internal/cost.Model.Scale", "repro/internal/gpu.(*engine).start"},
			"gpu"},
		{"no repo frame is runtime.other",
			[]string{"runtime.usleep", "runtime.sysmon", "runtime.mstart"},
			bucketOther},
		{"the benchmark's own code is runtime.other",
			[]string{"main.(*latHist).add", "repro/internal/gpu.(*engine).doComplete"},
			bucketOther},
		{"a GC worker is runtime.gc",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
			bucketGC},
		{"a mark assist under a layer is runtime.gc",
			[]string{"runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/metrics.(*Digest).Add"},
			bucketGC},
		{"a channel handoff under sim.Proc is runtime.handoff",
			[]string{"runtime.runqput", "runtime.ready", "runtime.goready", "runtime.chanrecv1", "repro/internal/sim.(*Proc).activate"},
			bucketHandoff},
		{"the scheduler with no repo frame is runtime.handoff",
			[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"},
			bucketHandoff},
		{"a channel op inside a layer above sim stays with that layer",
			[]string{"runtime.chansend1", "repro/internal/traffic.(*Server).arrive"},
			"traffic"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%s: classify(%v) = %q, want %q", c.name, c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(num int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(num int, data []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
}

func (b *pb) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytesField(num, p)
}

// syntheticProfile encodes a gzipped profile.proto with one function
// and location per name (the location inlines nothing except where
// inlined gives it a second line) and the given samples.
func syntheticProfile(t *testing.T, names []string, inlined map[int]int, samples [][]uint64, values []uint64) []byte {
	t.Helper()
	var prof pb
	for i, locs := range samples {
		var s pb
		s.packed(1, locs...)
		s.packed(2, values[i], values[i]*2e6)
		prof.bytesField(2, s.Bytes())
	}
	for i := range names {
		id := uint64(i + 1)
		var loc pb
		loc.varint(1, id)
		if callee, ok := inlined[i]; ok {
			var line pb
			line.varint(1, uint64(callee+1))
			loc.bytesField(4, line.Bytes())
		}
		var line pb
		line.varint(1, id)
		loc.bytesField(4, line.Bytes())
		prof.bytesField(4, loc.Bytes())

		var fn pb
		fn.varint(1, id)
		fn.varint(2, uint64(i+1)) // string index; 0 is ""
		prof.bytesField(5, fn.Bytes())
	}
	prof.bytesField(6, nil)
	for _, n := range names {
		prof.bytesField(6, []byte(n))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestFoldCPUProfile(t *testing.T) {
	names := []string{
		"runtime.mapaccess1",                      // 1
		"repro/internal/core.(*DFQLedger).Charge", // 2
		"repro/internal/sim.(*Engine).RunUntil",   // 3
		"runtime.gcBgMarkWorker",                  // 4
		"runtime.goexit",                          // 5
		"repro/internal/traffic.(*Server).arrive", // 6
		"repro/internal/metrics.(*Digest).Add",    // 7, inlined into location 6
	}
	// Location 6 carries two lines: Digest.Add inlined into Server.arrive.
	inlined := map[int]int{5: 6}
	data := syntheticProfile(t, names, inlined,
		[][]uint64{
			{1, 2, 3}, // core -> runtime.mapaccess
			{4, 5},    // GC worker, no repo frame
			{5},       // nothing but the runtime
			{6, 3},    // inlined metrics frame is the innermost layer
		},
		[]uint64{3, 2, 1, 4})
	got, err := foldCPUProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"core": 3, bucketGC: 2, bucketOther: 1, "metrics": 4}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("fold[%q] = %d, want %d (fold %v)", k, got[k], v, got)
		}
	}
}

func TestDecodeProfileRejectsTruncated(t *testing.T) {
	data := syntheticProfile(t, []string{"runtime.goexit"}, nil, [][]uint64{{1}}, []uint64{1})
	var raw bytes.Buffer
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(raw.Bytes()[:raw.Len()-3])
	zw.Close()
	if _, err := decodeProfile(z.Bytes()); err == nil {
		t.Fatal("decodeProfile accepted a truncated profile")
	}
}
