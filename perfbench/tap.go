package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"omcast/internal/node"
	"omcast/internal/wire"
)

// tap wraps a node's Transport with the benchmark's own accounting: the
// source's stream sends (for latency and pacing), a leaf's stream receipts
// (for loss, order and latency) and, in traced runs, per-call timings and
// spans of every send and handler call.
type tap struct {
	inner node.Transport
	base  time.Time
	// sendOn records stream packets this endpoint sends; recvOn records
	// stream packets it receives.
	sendOn atomic.Bool
	recvOn atomic.Bool
	tr     *liveTracer // nil when untraced

	mu   sync.Mutex
	tx   []stamped // first send of each stream packet, in send order
	rx   []stamped // stream and repair packets received, in arrival order
	last int64     // last recorded tx sequence

	// Handler-call state for traced runs. The handler runs on the
	// transport's single receive goroutine; sends from the node's other
	// goroutines may overlap it, so these are atomics.
	inHandler atomic.Bool
	curSpan   atomic.Uint64
	childNs   atomic.Int64
}

// stamped is one stream packet event at a time in ns since the tap's base.
type stamped struct {
	seq      int64
	at       int64
	repaired bool
}

var _ node.Transport = (*tap)(nil)

func newTap(inner node.Transport, base time.Time, tr *liveTracer) *tap {
	return &tap{inner: inner, base: base, tr: tr, last: -1}
}

func (t *tap) now() int64 { return int64(time.Since(t.base)) }

// Addr implements node.Transport.
func (t *tap) Addr() wire.Addr { return t.inner.Addr() }

// Close implements node.Transport.
func (t *tap) Close() error { return t.inner.Close() }

// peek decodes a datagram for the accounting. Data is the stream: packets
// and repairs.
func peek(data []byte) (env wire.Envelope, isData, ok bool) {
	env, err := wire.Detect(data).Decode(data)
	if err != nil {
		return env, false, false
	}
	return env, env.Type == wire.TypePacket || env.Type == wire.TypeRepairData, true
}

// Send implements node.Transport.
func (t *tap) Send(to wire.Addr, data []byte) error {
	tracing := t.tr != nil && t.tr.on.Load()
	if !tracing && !t.sendOn.Load() {
		return t.inner.Send(to, data)
	}
	env, isData, ok := peek(data)
	if ok && env.Type == wire.TypePacket && t.sendOn.Load() {
		at := t.now()
		t.mu.Lock()
		if env.Packet != t.last {
			t.tx = append(t.tx, stamped{seq: env.Packet, at: at})
			t.last = env.Packet
		}
		t.mu.Unlock()
	}
	if !tracing {
		return t.inner.Send(to, data)
	}
	start := t.tr.log.now()
	err := t.inner.Send(to, data)
	end := t.tr.log.now()
	d := end - start
	if t.inHandler.Load() {
		t.childNs.Add(d)
	}
	sp := span{Name: "transport.send", Span: t.tr.log.id(), Parent: t.curSpan.Load(), Start: start, End: end}
	if isData {
		sp.ID = env.Packet
		t.tr.linkSend(to, env.Packet, sp.Span)
	}
	t.tr.noteSend(d, sp)
	return err
}

// SetHandler implements node.Transport.
func (t *tap) SetHandler(h func(data []byte)) {
	t.inner.SetHandler(func(data []byte) {
		tracing := t.tr != nil && t.tr.on.Load()
		if !tracing && !t.recvOn.Load() {
			h(data)
			return
		}
		env, isData, ok := peek(data)
		if ok && isData && t.recvOn.Load() {
			at := t.now()
			t.mu.Lock()
			t.rx = append(t.rx, stamped{seq: env.Packet, at: at, repaired: env.Type == wire.TypeRepairData})
			t.mu.Unlock()
		}
		if !tracing {
			h(data)
			return
		}
		t.tr.noteRecv(data, isData)
		id := t.tr.log.id()
		t.childNs.Store(0)
		t.curSpan.Store(id)
		t.inHandler.Store(true)
		start := t.tr.log.now()
		h(data)
		end := t.tr.log.now()
		t.inHandler.Store(false)
		t.curSpan.Store(0)
		sp := span{Name: "node.handle", Span: id, Start: start, End: end}
		if isData {
			sp.ID = env.Packet
			sp.Parent = t.tr.sendOf(t.Addr(), env.Packet)
		}
		t.tr.noteHandle(end-start-t.childNs.Load(), sp)
	})
}

// sends returns the recorded first sends, in send order.
func (t *tap) sends() []stamped {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]stamped(nil), t.tx...)
}

// receipts returns the recorded receipts, in arrival order.
func (t *tap) receipts() []stamped {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]stamped(nil), t.rx...)
}

// delivery is the benchmark's own (leaf, seq) accounting over a window: the
// stream packets the source first sent in [from, to) are each expected once
// at every leaf.
type delivery struct {
	expected   int       // leaves x packets sent in the window
	delivered  int       // distinct (leaf, seq) pairs of those that arrived
	outOfOrder []int     // per leaf: stream receipts that did not advance the sequence
	latencyUs  []float64 // source send -> leaf receipt, pooled over leaves
	leafPPS    []float64 // per leaf: stream receipts in the window per second
	srcPPS     float64   // source first sends in the window per second
	srcGapsUs  []float64 // gaps between successive source sends in the window
	blocksS    []float64 // per full block of blockPackets: first send -> last leaf receipt
}

// analyze computes the delivery accounting for the window [from, to) (ns on
// the taps' shared clock) with blocks of blockPackets packets.
func analyze(src *tap, leaves []*tap, from, to int64, blockPackets int) delivery {
	var d delivery
	window := float64(to-from) / 1e9
	sent := map[int64]int64{}
	var seqs []int64
	prev := int64(-1)
	for _, s := range src.sends() {
		if s.at < from || s.at >= to {
			continue
		}
		sent[s.seq] = s.at
		seqs = append(seqs, s.seq)
		if prev >= 0 {
			d.srcGapsUs = append(d.srcGapsUs, float64(s.at-prev)/1e3)
		}
		prev = s.at
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if window > 0 {
		d.srcPPS = float64(len(seqs)) / window
	}
	d.expected = len(seqs) * len(leaves)
	// arrival[leaf][seq] is the first receipt time of seq at that leaf.
	arrival := make([]map[int64]int64, len(leaves))
	for i, l := range leaves {
		arrival[i] = map[int64]int64{}
		high := int64(-1)
		ooo, inWindow := 0, 0
		for _, rx := range l.receipts() {
			if rx.at >= from && rx.at < to && !rx.repaired {
				inWindow++
			}
			if _, want := sent[rx.seq]; !want {
				continue
			}
			if _, dup := arrival[i][rx.seq]; !dup {
				arrival[i][rx.seq] = rx.at
				if !rx.repaired {
					d.latencyUs = append(d.latencyUs, float64(rx.at-sent[rx.seq])/1e3)
				}
			}
			if !rx.repaired {
				if rx.seq <= high {
					ooo++
				}
				if rx.seq > high {
					high = rx.seq
				}
			}
		}
		d.delivered += len(arrival[i])
		d.outOfOrder = append(d.outOfOrder, ooo)
		if window > 0 {
			d.leafPPS = append(d.leafPPS, float64(inWindow)/window)
		}
	}
	for b := 0; blockPackets > 0 && b+blockPackets <= len(seqs); b += blockPackets {
		block := seqs[b : b+blockPackets]
		var done int64
		for i := range leaves {
			var last int64
			for _, s := range block {
				if at, ok := arrival[i][s]; ok && at > last {
					last = at
				}
			}
			if last > done {
				done = last
			}
		}
		if done > 0 {
			d.blocksS = append(d.blocksS, float64(done-sent[block[0]])/1e9)
		}
	}
	return d
}

// lossRatio is the share of expected (leaf, seq) deliveries that never
// arrived.
func (d delivery) lossRatio() float64 {
	if d.expected == 0 {
		return 0
	}
	return float64(d.expected-d.delivered) / float64(d.expected)
}
