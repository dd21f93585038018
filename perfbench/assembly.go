package main

import (
	"fmt"
	"time"

	"omcast"
	"omcast/internal/cer"
	"omcast/internal/churn"
	"omcast/internal/construct"
	"omcast/internal/eventsim"
	"omcast/internal/metrics"
	"omcast/internal/overlay"
	"omcast/internal/rost"
	"omcast/internal/stream"
	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// assembly says what to attach to a benchmark-assembled session: timing
// wrappers at the layer seams and a metrics registry. The zero value (or a
// nil *assembly) assembles the plain stack.
type assembly struct {
	seams *seams
	reg   *metrics.Registry
}

// simSession is the omcast simulation stack assembled from the packages'
// public constructors, in the same order and with the same named random
// streams as omcast.Run and omcast.RunStreaming, so that it reproduces
// their outputs exactly for a seed.
type simSession struct {
	sim    *eventsim.Simulator
	driver *churn.Driver
	model  *stream.Model // nil for tree-level points
}

// topologyConfig mirrors omcast's mapping of TopologyOptions onto the
// underlay generator's defaults.
func topologyConfig(cfg omcast.Config) topology.Config {
	tc := topology.DefaultConfig(cfg.Seed)
	o := cfg.Topology
	if o.TransitDomains > 0 {
		tc.TransitDomains = o.TransitDomains
	}
	if o.TransitNodesPerDomain > 0 {
		tc.TransitNodesPerDomain = o.TransitNodesPerDomain
	}
	if o.StubDomainsPerTransit > 0 {
		tc.StubDomainsPerTransit = o.StubDomainsPerTransit
	}
	if o.StubNodesPerDomain > 0 {
		tc.StubNodesPerDomain = o.StubNodesPerDomain
	}
	return tc
}

// assemble builds spec's session up to its first event. It supports what
// the benchmark's points use: minimum-depth or ROST trees, CER recovery,
// default distributions and windows set explicitly.
func assemble(spec simSpec, a *assembly) (*simSession, error) {
	if a == nil {
		a = &assembly{}
	}
	cfg := spec.cfg
	if cfg.Warmup <= 0 || cfg.Measure <= 0 {
		return nil, fmt.Errorf("assemble: windows must be set explicitly")
	}
	topo, err := topology.New(topologyConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("assemble: building underlay: %w", err)
	}
	delay := topo.Delay
	if a.seams != nil {
		delay = a.seams.delay(topo.Delay)
	}
	s := &simSession{sim: eventsim.New()}
	rootAttach := topo.RandomStub(xrand.NewNamed(cfg.Seed, "source.attach"))
	tree, err := overlay.NewTree(rootAttach, churn.DefaultRootBandwidth, delay)
	if err != nil {
		return nil, fmt.Errorf("assemble: creating tree: %w", err)
	}
	env := &construct.Env{
		Rng:            xrand.NewNamed(cfg.Seed, "strategy"),
		Delay:          delay,
		CandidateCount: construct.DefaultCandidateCount,
	}
	var strategy construct.Strategy
	var protocol *rost.Protocol
	switch cfg.Algorithm {
	case omcast.MinimumDepth:
		strategy = &construct.MinDepth{Env: env}
	case omcast.ROST:
		protocol = rost.New(tree, env, rost.Config{SwitchInterval: rost.DefaultSwitchInterval})
		strategy = protocol
	default:
		return nil, fmt.Errorf("assemble: algorithm %v not supported", cfg.Algorithm)
	}
	if a.reg != nil {
		s.sim.Instrument(a.reg)
		if protocol != nil {
			protocol.Instrument(a.reg)
		}
	}
	if a.seams != nil {
		strategy = a.seams.strategy(strategy)
	}

	hooks := churn.Hooks{
		OnJoin: func(sim *eventsim.Simulator, m *overlay.Member) {
			if protocol != nil {
				protocol.Start(sim, m)
			}
			if s.model != nil {
				s.model.Register(m, sim.Now())
			}
		},
		OnFailure: func(sim *eventsim.Simulator, failed *overlay.Member) {
			var onFailure func() // nil for tree-level points
			if s.model != nil {
				onFailure = func() { s.model.OnFailure(failed, sim.Now()) }
			}
			if a.seams != nil {
				a.seams.failure(failed, onFailure)
			} else if onFailure != nil {
				onFailure()
			}
		},
		OnDepart: func(sim *eventsim.Simulator, id overlay.MemberID) {
			if s.model != nil {
				s.model.Depart(id, sim.Now())
			}
		},
	}
	s.driver, err = churn.NewDriver(s.sim, tree, topo, strategy, churn.Config{
		Seed:           cfg.Seed,
		TargetSize:     cfg.TargetSize,
		RootBandwidth:  churn.DefaultRootBandwidth,
		Warmup:         cfg.Warmup,
		Measure:        cfg.Measure,
		PrePopulate:    true,
		AncestorRejoin: true,
	}, hooks)
	if err != nil {
		return nil, fmt.Errorf("assemble: creating churn driver: %w", err)
	}
	if a.reg != nil {
		s.driver.Instrument(a.reg)
	}
	if spec.stream != nil {
		sc := *spec.stream
		if sc.Recovery != omcast.CER {
			return nil, fmt.Errorf("assemble: recovery %v not supported", sc.Recovery)
		}
		var selector cer.Selector = &cer.MLCSelector{Tree: tree, Rng: xrand.NewNamed(cfg.Seed, "cer.select"), Delay: delay}
		if a.seams != nil {
			selector = a.seams.selector(selector)
		}
		s.model = stream.NewModel(tree, delay, selector, xrand.NewNamed(cfg.Seed, "stream.residual"), stream.Config{
			Rate:        sc.Rate,
			Buffer:      sc.Buffer,
			GroupSize:   sc.GroupSize,
			Striped:     true,
			ResidualMax: sc.ResidualMax,
			MeasureFrom: cfg.Warmup,
		})
		if a.reg != nil {
			s.model.Instrument(a.reg)
		}
	}
	return s, nil
}

// run fires every event up to the horizon and returns the point's
// deterministic outputs.
func (s *simSession) run() (simOutputs, error) {
	s.driver.Start()
	if err := s.sim.Run(s.driver.Horizon()); err != nil {
		return simOutputs{}, fmt.Errorf("simulation failed: %w", err)
	}
	out := simOutputs{Events: s.sim.Processed(), AvgDisruptions: s.driver.Result().AvgDisruptions}
	if s.model != nil {
		s.model.Finish(s.sim.Now())
		out.StarvingRatio = s.model.Result().AvgStarvingRatio
	}
	return out, nil
}

// queueHighWater reads the kernel's largest queue depth from reg.
func (s *simSession) queueHighWater(reg *metrics.Registry) float64 {
	for _, m := range reg.Snapshot(s.sim.Now().Seconds()).Metrics {
		if m.Name == "omcast_sim_queue_depth_high_water" {
			return m.Value
		}
	}
	return 0
}

// seams times the calls the simulator makes across layer boundaries. The
// simulator is single-threaded, so no locking is needed.
type seams struct {
	log *spanLog

	joins     []float64 // ns per Strategy.Join
	joinTotal time.Duration

	delayCalls   uint64
	delaySampled uint64
	delaySampleN int64 // ns summed over the sampled calls

	selectCalls uint64
	selectNs    int64

	failureSelf int64 // ns in Model.OnFailure minus selection
	inFailure   bool
	failSelect  int64 // selection ns inside the current failure

	episode  int64
	failSpan uint64
	orphanOf map[overlay.MemberID]episodeRef
}

// episodeRef ties a member's rejoin to the failure episode that orphaned
// it.
type episodeRef struct {
	id   int64
	span uint64
}

// delaySampleEvery times one in this many delay-oracle calls: the oracle is
// a table lookup, so timing every call would mostly measure the clock.
const delaySampleEvery = 16

func newSeams(log *spanLog) *seams {
	return &seams{log: log, orphanOf: make(map[overlay.MemberID]episodeRef)}
}

func (s *seams) delay(inner func(a, b topology.NodeID) time.Duration) func(a, b topology.NodeID) time.Duration {
	return func(a, b topology.NodeID) time.Duration {
		s.delayCalls++
		if s.delayCalls%delaySampleEvery != 0 {
			return inner(a, b)
		}
		start := time.Now()
		d := inner(a, b)
		s.delaySampleN += int64(time.Since(start))
		s.delaySampled++
		return d
	}
}

// timedStrategy wraps a construct.Strategy, timing every Join.
type timedStrategy struct {
	inner construct.Strategy
	s     *seams
}

func (s *seams) strategy(inner construct.Strategy) construct.Strategy {
	return &timedStrategy{inner: inner, s: s}
}

func (t *timedStrategy) Name() string { return t.inner.Name() }

func (t *timedStrategy) Join(tree *overlay.Tree, m *overlay.Member, now time.Duration) error {
	s := t.s
	start := s.log.now()
	err := t.inner.Join(tree, m, now)
	end := s.log.now()
	s.joins = append(s.joins, float64(end-start))
	s.joinTotal += time.Duration(end - start)
	sp := span{Name: "construct.join", Start: start, End: end, Span: s.log.id()}
	if ref, ok := s.orphanOf[m.ID]; ok {
		sp.ID, sp.Parent = ref.id, ref.span
		delete(s.orphanOf, m.ID)
	}
	s.log.add(sp)
	return err
}

// timedSelector wraps a cer.Selector (Algorithm 1), timing every Select.
type timedSelector struct {
	inner cer.Selector
	s     *seams
}

func (s *seams) selector(inner cer.Selector) cer.Selector {
	return &timedSelector{inner: inner, s: s}
}

func (t *timedSelector) Select(self *overlay.Member, k int) []*overlay.Member {
	s := t.s
	start := s.log.now()
	out := t.inner.Select(self, k)
	end := s.log.now()
	s.selectCalls++
	s.selectNs += end - start
	if s.inFailure {
		s.failSelect += end - start
	}
	s.log.add(span{Name: "cer.select", ID: s.episode, Span: s.log.id(), Parent: s.failSpan, Start: start, End: end})
	return out
}

// failure opens a failure episode around fn (the stream model's OnFailure,
// or nil for tree-level points, which have no stream model to time) and
// remembers which members it orphaned, so their rejoins join the episode's
// spans.
func (s *seams) failure(failed *overlay.Member, fn func()) {
	s.episode++
	s.failSpan = s.log.id()
	for _, c := range failed.Children() {
		s.orphanOf[c.ID] = episodeRef{id: s.episode, span: s.failSpan}
	}
	s.inFailure, s.failSelect = true, 0
	start := s.log.now()
	if fn != nil {
		fn()
	}
	end := s.log.now()
	s.inFailure = false
	if fn != nil {
		s.failureSelf += end - start - s.failSelect
	}
	s.log.add(span{Name: "churn.failure", ID: s.episode, Span: s.failSpan, Start: start, End: end})
}

// report sets the seam metrics.
func (s *seams) report(r *report) {
	r.set("construct.joins", float64(len(s.joins)))
	r.set("construct.join_ns_p50", median(s.joins))
	r.set("construct.join_s_total", s.joinTotal.Seconds())
	r.lines = append(r.lines, timing{"construct.join_ns", "ns", s.joins}.String())
	r.set("topology.delay_calls", float64(s.delayCalls))
	if s.delaySampled > 0 {
		r.set("topology.delay_ns", float64(s.delaySampleN)/float64(s.delaySampled)*float64(s.delayCalls))
	}
	r.set("cer.select_calls", float64(s.selectCalls))
	r.set("cer.select_ns", float64(s.selectNs))
	r.set("stream.failure_self_ns", float64(s.failureSelf))
}
