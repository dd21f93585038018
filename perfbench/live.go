package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"omcast/internal/node"
	"omcast/internal/wire"
)

// The live-fanout workload: one process runs a source and liveMembers
// members over loopback UDP, every node with bandwidth 2, so sequential
// joins build a complete binary tree of depth 3 with 8 leaves. The source
// paces an open-loop liveRate pkt/s stream of empty packets itself.
const (
	liveMembers     = 14
	liveLeaves      = 8
	liveDepth       = 3
	liveBandwidth   = 2
	liveRate        = 1000.0
	liveHeartbeat   = 100 * time.Millisecond
	livePlayback    = time.Second
	liveSetups      = 5
	liveAttachLimit = 10 * time.Second
	liveSettle      = time.Second
	liveGrace       = 300 * time.Millisecond
	// liveBlock is the stream block wall_s times: liveBlock packets from
	// the source's first send to their last arrival at every leaf.
	liveBlock = 1000
)

// cluster is one running live-fanout overlay.
type cluster struct {
	nodes []*node.Node // nodes[0] is the source
	taps  []*tap
}

func liveConfig(seed int64) node.Config {
	return node.Config{
		Bandwidth:         liveBandwidth,
		StreamRate:        liveRate,
		HeartbeatInterval: liveHeartbeat,
		PlaybackBuffer:    livePlayback,
		Seed:              seed,
	}
}

// startCluster binds and starts the source, then the members one at a
// time, each after the previous one attached. It returns the time from
// the first bind until the last member attached.
func startCluster(seed int64, tr *liveTracer) (*cluster, time.Duration, error) {
	c := &cluster{}
	base := time.Now()
	start := time.Now()
	for i := 0; i <= liveMembers; i++ {
		udp, err := node.NewUDPTransport("127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, 0, fmt.Errorf("binding node %d: %w", i, err)
		}
		t := newTap(udp, base, tr)
		cfg := liveConfig(seed)
		if i == 0 {
			cfg.Source = true
			t.sendOn.Store(true)
		} else {
			cfg.Bootstrap = []wire.Addr{c.taps[0].Addr()}
		}
		n := node.New(cfg, t)
		c.nodes = append(c.nodes, n)
		c.taps = append(c.taps, t)
		n.Start()
		if i == 0 {
			continue
		}
		deadline := time.Now().Add(liveAttachLimit)
		for !n.Stats().Attached {
			if time.Now().After(deadline) {
				c.stop()
				return nil, 0, fmt.Errorf("member %d not attached after %v", i, liveAttachLimit)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return c, time.Since(start), nil
}

// stop shuts every node down, leaves first, and waits for each.
func (c *cluster) stop() {
	for i := len(c.nodes) - 1; i >= 0; i-- {
		c.nodes[i].Stop()
	}
}

// shape checks the tree: every member attached, two per level doubling to
// liveLeaves leaves at depth liveDepth. It returns the leaf taps.
func (c *cluster) shape() ([]*tap, error) {
	perDepth := map[int]int{}
	var leaves []*tap
	for i, n := range c.nodes[1:] {
		s := n.Stats()
		if !s.Attached {
			return nil, fmt.Errorf("member %d detached", i+1)
		}
		perDepth[s.Depth]++
		if s.Children == 0 {
			if s.Depth != liveDepth {
				return nil, fmt.Errorf("leaf at depth %d", s.Depth)
			}
			leaves = append(leaves, c.taps[i+1])
		}
	}
	for d, want := 1, 2; d <= liveDepth; d, want = d+1, want*2 {
		if perDepth[d] != want {
			return nil, fmt.Errorf("%d members at depth %d, want %d (%v)", perDepth[d], d, want, perDepth)
		}
	}
	if len(leaves) != liveLeaves {
		return nil, fmt.Errorf("%d leaves, want %d", len(leaves), liveLeaves)
	}
	return leaves, nil
}

// totals sums the node counters the live metrics and checks use.
type totals struct {
	received, retx, wireRejects, guardDrops, rejoins int64
	// played and starved are the nodes' own playback slot counts, printed
	// for comparison only: loss is measured by the taps.
	played, starved int64
}

func (c *cluster) totals() totals {
	var t totals
	for _, n := range c.nodes {
		s := n.Stats()
		t.received += s.PacketsReceived
		t.retx += s.RetxSent
		t.wireRejects += s.WireRejects
		t.guardDrops += s.GuardRateLimited + s.GuardQuarantineDrops + s.GuardAuditFails + s.GuardImplausible
		t.rejoins += s.Rejoins
		t.played += s.PlayedSlots
		t.starved += s.StarvedSlots
	}
	return t
}

// phase is one measured stretch of the stream, cut into slices of
// liveSlice so its CPU cost per datagram is a median over slices rather
// than one ratio a burst of neighbouring load can skew.
type phase struct {
	from, to  int64 // on the taps' clock
	cpu       time.Duration
	delivered int64
	perSlice  []float64 // CPU ns per delivered datagram in each slice
}

const liveSlice = time.Second

func (c *cluster) measure(d time.Duration) phase {
	p := phase{from: c.taps[0].now()}
	received, cpu := c.totals().received, cpuTime()
	for left := d; left > 0; left -= liveSlice {
		time.Sleep(min(left, liveSlice))
		r, u := c.totals().received, cpuTime()
		if r > received {
			p.perSlice = append(p.perSlice, float64((u-cpu).Nanoseconds())/float64(r-received))
		}
		p.cpu += u - cpu
		p.delivered += r - received
		received, cpu = r, u
	}
	p.to = c.taps[0].now()
	return p
}

// cpuNsPerDatagram is the median over slices of CPU ns per delivered
// datagram.
func (p phase) cpuNsPerDatagram() float64 { return median(p.perSlice) }

func runLiveFanout(seed int64, d time.Duration, trace bool, r *report) error {
	var tr *liveTracer
	setups := liveSetups
	if trace {
		tr = newLiveTracer()
		setups = 1
	}
	var c *cluster
	var leaves []*tap
	var setupS []float64
	for i := 0; i < setups; i++ {
		cl, took, err := startCluster(seed, tr)
		r.op(err == nil, fmt.Sprintf("set-up %d: %v", i, err))
		if err != nil {
			continue
		}
		setupS = append(setupS, took.Seconds())
		lv, err := cl.shape()
		r.op(err == nil, fmt.Sprintf("set-up %d tree shape: %v", i, err))
		if i < setups-1 || err != nil {
			cl.stop()
			continue
		}
		c, leaves = cl, lv
	}
	r.timing("setup_s", timing{"setup_s", "s", setupS})
	if c == nil {
		return nil // every set-up failed; already counted
	}
	for _, l := range leaves {
		l.recvOn.Store(true)
	}
	time.Sleep(liveSettle)

	var untraced, traced phase
	if trace {
		untraced = c.measure(d / 2)
		rt0 := readRuntime()
		prof, err := startProfile()
		if err != nil {
			c.stop()
			return err
		}
		tr.on.Store(true)
		traced = c.measure(d - d/2)
		tr.on.Store(false)
		rt1 := readRuntime()
		if err := prof.stop(r); err != nil {
			c.stop()
			return err
		}
		setRuntime(r, rt0, rt1, float64(traced.delivered))
	} else {
		untraced = c.measure(d)
	}
	time.Sleep(liveGrace)
	end := c.totals()
	c.stop()

	r.op(end.wireRejects == 0, fmt.Sprintf("wire rejects: %d", end.wireRejects))
	r.op(end.guardDrops == 0, fmt.Sprintf("guard drops: %d", end.guardDrops))
	win := untraced
	if trace {
		win = phase{from: untraced.from, to: traced.to}
	}
	dl := analyze(c.taps[0], leaves, win.from, win.to, liveBlock)
	for i, n := range dl.outOfOrder {
		r.op(n == 0, fmt.Sprintf("leaf %d in-order stream: %d receipts out of order", i, n))
	}
	r.ops(dl.expected, dl.expected-dl.delivered)

	if trace {
		tr.report(r, end)
		r.set("node.src_gap_us_p99", tailOrZero(dl.srcGapsUs, 0.99))
		r.lines = append(r.lines, timing{"node.src_gap_us", "us", dl.srcGapsUs}.String())
		r.set("trace.spans", float64(tr.log.count()))
		ov := traced.cpuNsPerDatagram()/untraced.cpuNsPerDatagram() - 1
		r.set("trace.overhead", finite(ov))
		r.printf("traced cpu %.0f ns/datagram vs untraced %.0f: tracing overhead %+.1f%%",
			traced.cpuNsPerDatagram(), untraced.cpuNsPerDatagram(), 100*ov)
		path, err := tr.log.write(spanDir(), fmt.Sprintf("live-fanout-seed%d.jsonl.gz", seed))
		if err != nil {
			return err
		}
		r.printf("spans: %d written to %s", tr.log.count(), path)
		return nil
	}

	r.timing("wall_s", timing{"wall_s", "s", dl.blocksS})
	r.timing("cpu_ns_per_op", timing{"cpu_ns_per_op", "ns", untraced.perSlice})
	r.printf("%-30s %14.6g %-6s %d datagrams in %.3fs CPU", "pkts_per_cpu_s", 1e9/untraced.cpuNsPerDatagram(), "1/s", untraced.delivered, untraced.cpu.Seconds())
	r.lines = append(r.lines,
		timing{"leaf_pps", "1/s", dl.leafPPS}.String(),
		timing{"deliver_us", "us", dl.latencyUs}.String(),
	)
	r.printf("%-30s %14.6g %-6s", "deliver_p50_us", median(dl.latencyUs), "us")
	r.printf("%-30s %14.6g %-6s", "deliver_p99_us", tailOrZero(dl.latencyUs, 0.99), "us")
	r.printf("%-30s %14.6g %-6s offered %.0f, generator lateness %.1f%%", "source_pps", dl.srcPPS, "1/s", liveRate, 100*(1-dl.srcPPS/liveRate))
	r.printf("%-30s %14.6g %-6s %d of %d (leaf, seq) deliveries missing", "loss_ratio", dl.lossRatio(), "ratio", dl.expected-dl.delivered, dl.expected)
	r.printf("node playback accounting (not used for loss): %d slots played, %d starved", end.played, end.starved)
	return nil
}

// tailOrZero is the q-percentile of xs, or 0 when the tail is too thin to
// report.
func tailOrZero(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// finite replaces NaN and infinities (no samples) by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// liveTracer collects the traced live run's per-call timings and spans. It
// is shared by every node's tap; on gates recording so one run can measure
// an untraced and a traced stretch.
type liveTracer struct {
	on  atomic.Bool
	log *spanLog

	mu       sync.Mutex
	sendNs   []float64          //guarded by mu
	handleNs []float64          //guarded by mu
	rxData   int64              //guarded by mu
	rxCtrl   int64              //guarded by mu
	sendSpan map[sendKey]uint64 //guarded by mu
	mix      [][]byte           //guarded by mu
	seen     int64              //guarded by mu
}

// sendKey names one stream packet on one hop.
type sendKey struct {
	to  wire.Addr
	seq int64
}

// mixSize bounds the captured datagram mix; one datagram in mixEvery is
// kept until it is full.
const (
	mixSize  = 4096
	mixEvery = 7
)

func newLiveTracer() *liveTracer {
	return &liveTracer{log: newSpanLog(), sendSpan: make(map[sendKey]uint64)}
}

func (t *liveTracer) linkSend(to wire.Addr, seq int64, id uint64) {
	t.mu.Lock()
	t.sendSpan[sendKey{to, seq}] = id
	t.mu.Unlock()
}

// sendOf returns (and forgets) the send span that carried seq to addr.
func (t *liveTracer) sendOf(addr wire.Addr, seq int64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := sendKey{addr, seq}
	id := t.sendSpan[k]
	delete(t.sendSpan, k)
	return id
}

func (t *liveTracer) noteSend(d int64, sp span) {
	t.mu.Lock()
	t.sendNs = append(t.sendNs, float64(d))
	t.mu.Unlock()
	t.log.add(sp)
}

func (t *liveTracer) noteHandle(self int64, sp span) {
	t.mu.Lock()
	t.handleNs = append(t.handleNs, float64(self))
	t.mu.Unlock()
	t.log.add(sp)
}

// noteRecv counts a received datagram by class and samples it into the
// datagram mix the codec is timed over.
func (t *liveTracer) noteRecv(data []byte, isData bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if isData {
		t.rxData++
	} else {
		t.rxCtrl++
	}
	t.seen++
	if len(t.mix) < mixSize && t.seen%mixEvery == 0 {
		t.mix = append(t.mix, append([]byte(nil), data...))
	}
}

func (t *liveTracer) report(r *report, end totals) {
	t.mu.Lock()
	sendNs, handleNs, mix := t.sendNs, t.handleNs, t.mix
	rxData, rxCtrl := t.rxData, t.rxCtrl
	t.mu.Unlock()
	r.set("node.handle_self_ns_p50", median(handleNs))
	r.set("node.handle_self_ns_p99", tailOrZero(handleNs, 0.99))
	r.set("transport.send_ns_p50", median(sendNs))
	r.set("transport.send_ns_p99", tailOrZero(sendNs, 0.99))
	r.set("transport.sends", float64(len(sendNs)))
	r.lines = append(r.lines,
		timing{"node.handle_self_ns", "ns", handleNs}.String(),
		timing{"transport.send_ns", "ns", sendNs}.String(),
	)
	r.set("node.rx_data", float64(rxData))
	r.set("node.rx_ctrl", float64(rxCtrl))
	r.set("node.retx_sent", float64(end.retx))
	r.set("node.wire_rejects", float64(end.wireRejects))
	r.set("node.guard_drops", float64(end.guardDrops))
	r.set("node.rejoins", float64(end.rejoins))
	dec, enc := codecCost(mix)
	r.set("wire.decode_ns", dec)
	r.set("wire.encode_ns", enc)
	r.printf("wire: %d datagrams in the mix, decode %.0f ns, encode %.0f ns", len(mix), dec, enc)
}

// codecCost times wire.BinaryV1 decoding the captured datagram mix and
// re-encoding the decoded envelopes, in ns per datagram.
func codecCost(mix [][]byte) (decodeNs, encodeNs float64) {
	if len(mix) == 0 {
		return 0, 0
	}
	envs := make([]wire.Envelope, 0, len(mix))
	for _, b := range mix {
		if env, err := wire.BinaryV1.Decode(b); err == nil {
			envs = append(envs, env)
		}
	}
	const rounds = 50
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for _, b := range mix {
			_, _ = wire.BinaryV1.Decode(b) // a reject costs time like any other decode
		}
	}
	decodeNs = float64(time.Since(start).Nanoseconds()) / float64(rounds*len(mix))
	if len(envs) == 0 {
		return decodeNs, 0
	}
	start = time.Now()
	for i := 0; i < rounds; i++ {
		for _, env := range envs {
			_, _ = wire.BinaryV1.Encode(env) // decoded envelopes re-encode
		}
	}
	encodeNs = float64(time.Since(start).Nanoseconds()) / float64(rounds*len(envs))
	return decodeNs, encodeNs
}
