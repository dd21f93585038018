package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"omcast"
	"omcast/internal/metrics"
	"omcast/internal/node"
	"omcast/internal/wire"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, err)
	}
	for _, q := range []float64{0.95, 0.99, 0.999} {
		if v, err := percentile(xs, q); err == nil {
			t.Errorf("p%g of 100 samples = %v, want refusal (fewer than 10 beyond)", 100*q, v)
		}
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples accepted with 9 beyond it")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples accepted")
	}
	q, v, ok := timing{samples: xs}.tail()
	if !ok || q != 0.9 || v != 90 {
		t.Errorf("tail of 100 samples = p%g %v %v, want p90 90", 100*q, v, ok)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
}

// TestTapRecoversInjectedLatency streams packets over an in-memory network
// with a fixed one-way latency and checks that the delivery accounting the
// live workload uses measures that latency and loses nothing. (The
// in-memory network may reorder, so order is tested on its own below.)
func TestTapRecoversInjectedLatency(t *testing.T) {
	const latency = 4 * time.Millisecond
	const packets = 60
	mem := node.NewMemNetwork(func(from, to wire.Addr) time.Duration { return latency })
	defer mem.Close()
	base := time.Now()
	srcEnd, err := mem.Endpoint("src")
	if err != nil {
		t.Fatal(err)
	}
	leafEnd, err := mem.Endpoint("leaf")
	if err != nil {
		t.Fatal(err)
	}
	src, leaf := newTap(srcEnd, base, nil), newTap(leafEnd, base, nil)
	src.sendOn.Store(true)
	leaf.recvOn.Store(true)
	got := make(chan struct{}, packets)
	leaf.SetHandler(func([]byte) { got <- struct{}{} })
	src.SetHandler(func([]byte) {})

	from := src.now()
	for i := 0; i < packets; i++ {
		data, err := wire.BinaryV1.Encode(wire.Envelope{Type: wire.TypePacket, From: "src", Packet: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Send("leaf", data); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	to := src.now()
	for i := 0; i < packets; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d packets arrived", i, packets)
		}
	}

	d := analyze(src, []*tap{leaf}, from, to, 10)
	if d.expected != packets || d.delivered != packets || d.lossRatio() != 0 {
		t.Fatalf("expected %d delivered %d loss %v, want %d, %d, 0", d.expected, d.delivered, d.lossRatio(), packets, packets)
	}
	if len(d.latencyUs) != packets {
		t.Fatalf("%d latency samples, want %d", len(d.latencyUs), packets)
	}
	p50 := median(d.latencyUs)
	want := float64(latency.Microseconds())
	if p50 < want || p50 > want+3000 {
		t.Errorf("median latency %.0f us, want the injected %.0f us (+ at most 3 ms of timer slack)", p50, want)
	}
	if len(d.blocksS) != packets/10 {
		t.Errorf("%d blocks, want %d", len(d.blocksS), packets/10)
	}
}

func TestAnalyzeCountsLossOrderAndBlocks(t *testing.T) {
	ms := int64(time.Millisecond)
	src := &tap{}
	for seq := int64(0); seq < 8; seq++ {
		src.tx = append(src.tx, stamped{seq: seq, at: seq * ms})
	}
	inOrder, lossy := &tap{}, &tap{}
	for seq := int64(0); seq < 8; seq++ {
		inOrder.rx = append(inOrder.rx, stamped{seq: seq, at: seq*ms + 100_000})
	}
	// lossy misses 5, receives 3 after 4, and gets 6 twice.
	for _, seq := range []int64{0, 1, 2, 4, 3, 6, 6, 7} {
		lossy.rx = append(lossy.rx, stamped{seq: seq, at: seq*ms + 200_000})
	}
	d := analyze(src, []*tap{inOrder, lossy}, 0, 8*ms, 4)
	if d.expected != 16 || d.delivered != 15 {
		t.Errorf("expected %d delivered %d, want 16 and 15", d.expected, d.delivered)
	}
	if d.outOfOrder[0] != 0 || d.outOfOrder[1] != 2 {
		t.Errorf("out of order %v, want [0 2] (3 after 4, the second 6)", d.outOfOrder)
	}
	if len(d.latencyUs) != 15 || median(d.latencyUs) != 100 {
		t.Errorf("latencies %v, want 15 with median 100 us", d.latencyUs)
	}
	// Block [0..3] ends when the lossy leaf has 3 (at 3.2 ms); block
	// [4..7] when it has 7 (at 7.2 ms, first sent at 4 ms).
	if len(d.blocksS) != 2 || d.blocksS[0] != 0.0032 || d.blocksS[1] != 0.0032 {
		t.Errorf("blocks %v, want [0.0032 0.0032]", d.blocksS)
	}
	if d.srcPPS != 1000 || len(d.srcGapsUs) != 7 || d.srcGapsUs[0] != 1000 {
		t.Errorf("source %v pkt/s, gaps %v; want 1000 and 7 gaps of 1000 us", d.srcPPS, d.srcGapsUs)
	}
}

// quickSpecs are small points of both kinds the traced assembly must
// reproduce exactly.
func quickSpecs(seed int64) map[string]simSpec {
	cfg := func(alg omcast.Algorithm) omcast.Config {
		return omcast.Config{
			Seed:       seed,
			Algorithm:  alg,
			TargetSize: 300,
			Topology:   omcast.SmallTopology(),
			Warmup:     10 * time.Minute,
			Measure:    20 * time.Minute,
		}
	}
	return map[string]simSpec{
		"rost": {cfg: cfg(omcast.ROST)},
		"cer":  {cfg: cfg(omcast.MinimumDepth), stream: &omcast.StreamConfig{Recovery: omcast.CER, GroupSize: 3}},
	}
}

func TestTracedAssemblyMatchesOmcast(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for name, spec := range quickSpecs(seed) {
			ref, err := runPoint(spec)
			if err != nil {
				t.Fatalf("%s seed %d: omcast: %v", name, seed, err)
			}
			if ref.out.Events == 0 {
				t.Fatalf("%s seed %d: reference fired no events", name, seed)
			}
			plain, err := assemble(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := plain.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != ref.out {
				t.Errorf("%s seed %d: plain assembly %v, omcast %v", name, seed, got, ref.out)
			}
			s := newSeams(newSpanLog())
			reg := metrics.NewRegistry()
			traced, err := assemble(spec, &assembly{seams: s, reg: reg})
			if err != nil {
				t.Fatal(err)
			}
			got, err = traced.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != ref.out {
				t.Errorf("%s seed %d: traced assembly %v, omcast %v", name, seed, got, ref.out)
			}
			if len(s.joins) == 0 || s.delayCalls == 0 {
				t.Errorf("%s seed %d: seams saw %d joins, %d delay calls", name, seed, len(s.joins), s.delayCalls)
			}
			episodes := reg.Counter("omcast_cer_episodes_total", "").Value()
			if spec.stream != nil && (s.selectCalls == 0 || float64(s.selectCalls) != episodes) {
				t.Errorf("%s seed %d: %d selections for %v episodes", name, seed, s.selectCalls, episodes)
			}
			if spec.stream == nil && (s.selectCalls != 0 || s.failureSelf != 0) {
				t.Errorf("%s seed %d: tree-level point made %d selections and timed %d ns of stream failure handling", name, seed, s.selectCalls, s.failureSelf)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapiternext", "omcast/internal/node.(*Node).trimBufferLocked", "omcast/internal/node.(*Node).acceptPacket"}, "cpu.node"},
		{[]string{"syscall.Syscall6", "net.(*UDPConn).WriteToUDP", "omcast/internal/node.(*UDPTransport).Send"}, "cpu.syscall"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "cpu.gc"},
		{[]string{"omcast/internal/wire.DecodeBinary", "omcast/internal/wire.binaryCodec.Decode", "main.peek", "main.(*tap).SetHandler.func1"}, "cpu.bench"},
		{[]string{"omcast/internal/wire.DecodeBinary", "omcast/internal/node.(*Node).onDatagram", "main.(*tap).SetHandler.func1"}, "cpu.wire"},
		{[]string{"omcast/internal/overlay.(*Tree).Sample", "omcast/internal/construct.(*Env).candidates"}, "cpu.overlay"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "cpu.runtime"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var spin float64

func TestProfileDecoding(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			spin += float64(i) * 1.0000001
		}
	}
	r := newReport()
	if err := p.stop(r); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range profileMetrics {
		sum += r.values[m]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("layer shares sum to %v, want 1 (%v)", sum, r.values)
	}
	// The race detector's runtime calls take a share of the samples, so
	// only demand that the loop shows up under its own layer.
	if r.values["cpu.bench"] == 0 {
		t.Errorf("a busy loop in the benchmark's own code got no cpu.bench samples: %v", r.values)
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
		}
	}
}

// TestEveryPointSeedIsRecorded checks that whatever seed a run is given,
// its points land on seeds expected.json holds for both sim workloads.
func TestEveryPointSeedIsRecorded(t *testing.T) {
	for _, seed := range []int64{-65, -1, 0, 1, 63, 64, 1000003} {
		for i := 0; i < 10; i++ {
			ps := pointSeed(seed, i)
			for _, w := range []string{"rost-100k", "cer-8k"} {
				if _, ok := lookupExpected(w, ps); !ok {
					t.Errorf("run seed %d point %d: seed %d has no recorded %s outputs", seed, i, ps, w)
				}
			}
		}
	}
}
