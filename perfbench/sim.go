package main

import (
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"omcast"
	"omcast/internal/metrics"
)

// simSpec is one simulator figure point: a tree-level run (stream nil) or
// a packet-level one.
type simSpec struct {
	cfg    omcast.Config
	stream *omcast.StreamConfig
}

// rostSpec is the rost-100k point: ROST over 100 000 members on the
// paper's underlay (15 600 routers), 15 min warm-up and 15 min measured.
func rostSpec(seed int64) simSpec {
	return simSpec{cfg: omcast.Config{
		Seed:       seed,
		Algorithm:  omcast.ROST,
		TargetSize: 100000,
		Warmup:     15 * time.Minute,
		Measure:    15 * time.Minute,
	}}
}

// cerSpec is the cer-8k point: the Fig. 12/13 set-up, a minimum-depth tree
// of 8000 members with CER recovery groups of K=3, over half the paper's
// windows (900 s warm-up, 1800 s measured) so that a run holds several
// points and its medians span several seeds.
func cerSpec(seed int64) simSpec {
	return simSpec{
		cfg: omcast.Config{
			Seed:       seed,
			Algorithm:  omcast.MinimumDepth,
			TargetSize: 8000,
			Warmup:     900 * time.Second,
			Measure:    1800 * time.Second,
		},
		stream: &omcast.StreamConfig{Recovery: omcast.CER, GroupSize: 3},
	}
}

// simOutputs are a point's seed-deterministic results: what every run is
// checked on.
type simOutputs struct {
	Events         uint64  `json:"events"`
	AvgDisruptions float64 `json:"avg_disruptions"`
	StarvingRatio  float64 `json:"starving_ratio"`
}

func (o simOutputs) String() string {
	return fmt.Sprintf("events=%d avg_disruptions=%v starving_ratio=%v", o.Events, o.AvgDisruptions, o.StarvingRatio)
}

// pointResult is one figure point run through the public omcast API.
type pointResult struct {
	out  simOutputs
	wall time.Duration // the whole omcast call: what a user waits for
	cpu  time.Duration // process CPU over the call
	// loopNs and bytesPerMember are RunScale's own run-loop and retained
	// heap figures (tree-level points only).
	loopNs         int64
	bytesPerMember float64
}

// eventsMetric is the kernel counter a packet-level point's event count is
// read from (RunStreaming reports no event count of its own).
const eventsMetric = "omcast_sim_events_fired_total"

// runPoint runs spec through omcast.RunScale (tree-level) or
// omcast.RunStreaming (packet-level, with a metrics registry to count
// events).
func runPoint(spec simSpec) (pointResult, error) {
	var p pointResult
	cpu0 := cpuTime()
	start := time.Now()
	if spec.stream == nil {
		res, err := omcast.RunScale(spec.cfg)
		if err != nil {
			return p, err
		}
		p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
		p.out = simOutputs{Events: res.Events, AvgDisruptions: res.AvgDisruptions}
		p.loopNs, p.bytesPerMember = res.WallNs, res.BytesPerMember
		return p, nil
	}
	cfg := spec.cfg
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	res, err := omcast.RunStreaming(cfg, *spec.stream)
	if err != nil {
		return p, err
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	p.out = simOutputs{
		Events:         uint64(reg.Counter(eventsMetric, "").Value()),
		AvgDisruptions: res.AvgDisruptions,
		StarvingRatio:  res.AvgStarvingRatio,
	}
	return p, nil
}

// setupRepeats is how many times a sim run assembles its session to time
// set-up. An assembly takes tens of milliseconds, so many repeats cost
// little and steady the median.
const setupRepeats = 25

// recordedSeeds is how many inputs expected.json holds per sim workload:
// seeds 0 to recordedSeeds-1.
const recordedSeeds = 64

// pointSeed is the seed of a run's i-th figure point. The run's seed picks
// where in the recorded table its points start, so every point's outputs
// are checked exactly, whatever seed the run is given.
func pointSeed(seed int64, i int) int64 {
	s := (seed + int64(i)) % recordedSeeds
	if s < 0 {
		s += recordedSeeds
	}
	return s
}

func runRost100k(seed int64, d time.Duration, trace bool, r *report) error {
	return runSim("rost-100k", rostSpec, seed, d, trace, r)
}

func runCer8k(seed int64, d time.Duration, trace bool, r *report) error {
	return runSim("cer-8k", cerSpec, seed, d, trace, r)
}

// runSim measures one sim workload. Untraced: set-up timed setupRepeats
// times, then figure points back to back until d has passed (at least one).
// Point i uses pointSeed(seed, i): a point's cost depends on its seed's
// tree, so a run's medians span several inputs rather than one. Traced: one untraced
// reference point, then the traced assembly, whose outputs must equal the
// reference's.
func runSim(name string, spec func(int64) simSpec, seed int64, d time.Duration, trace bool, r *report) error {
	if trace {
		return traceSim(name, spec(pointSeed(seed, 0)), r)
	}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		_, err := assemble(spec(pointSeed(seed, 0)), nil) // up to the first event, then dropped
		elapsed := time.Since(start)
		r.op(err == nil, fmt.Sprintf("set-up %d: %v", i, err))
		if err == nil {
			setups = append(setups, elapsed.Seconds())
		}
		runtime.GC()
	}
	r.timing("setup_s", timing{"setup_s", "s", setups})

	var walls, cpuPerEvent, nsPerEvent, loopNsPerEvent, bpm []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		ps := spec(pointSeed(seed, i))
		p, err := runPoint(ps)
		if err != nil {
			r.op(false, fmt.Sprintf("point %d (seed %d): %v", i, ps.cfg.Seed, err))
			continue
		}
		checkOutputs(r, name, ps.cfg.Seed, p.out, fmt.Sprintf("point %d", i))
		r.printf("point %d seed %d: %.3fs, %v", i, ps.cfg.Seed, p.wall.Seconds(), p.out)
		if p.out.Events == 0 {
			continue
		}
		ev := float64(p.out.Events)
		walls = append(walls, p.wall.Seconds())
		cpuPerEvent = append(cpuPerEvent, float64(p.cpu.Nanoseconds())/ev)
		nsPerEvent = append(nsPerEvent, float64(p.wall.Nanoseconds())/ev)
		if p.loopNs > 0 {
			loopNsPerEvent = append(loopNsPerEvent, float64(p.loopNs)/ev)
			bpm = append(bpm, p.bytesPerMember)
		}
		runtime.GC()
	}
	r.timing("wall_s", timing{"wall_s", "s", walls})
	r.timing("cpu_ns_per_op", timing{"cpu_ns_per_op", "ns", cpuPerEvent})
	r.lines = append(r.lines, timing{"ns_per_event", "ns", nsPerEvent}.String())
	if len(loopNsPerEvent) > 0 {
		r.lines = append(r.lines,
			timing{"ns_per_event(run loop)", "ns", loopNsPerEvent}.String(),
			timing{"bytes_per_member", "B", bpm}.String(),
		)
	}
	return nil
}

// checkOutputs counts one check of a point's deterministic outputs: equal
// to the values recorded for its seed. A seed with no record fails.
func checkOutputs(r *report, workload string, seed int64, got simOutputs, what string) {
	want, ok := lookupExpected(workload, seed)
	if !ok {
		r.op(false, fmt.Sprintf("%s (seed %d): no recorded outputs", what, seed))
		return
	}
	r.op(got == want, fmt.Sprintf("%s (seed %d): outputs %v, recorded %v", what, seed, got, want))
}

// traceSim is the traced sim run.
func traceSim(name string, spec simSpec, r *report) error {
	ref, err := runPoint(spec)
	if err != nil {
		r.op(false, fmt.Sprintf("reference point: %v", err))
		return nil
	}
	checkOutputs(r, name, spec.cfg.Seed, ref.out, "reference point")
	runtime.GC()

	log := newSpanLog()
	s := newSeams(log)
	reg := metrics.NewRegistry()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	start := time.Now()
	sess, err := assemble(spec, &assembly{seams: s, reg: reg})
	if err != nil {
		pprof.StopCPUProfile()
		r.op(false, fmt.Sprintf("traced set-up: %v", err))
		return nil
	}
	got, err := sess.run()
	wall := time.Since(start)
	rt1 := readRuntime()
	if perr := prof.stop(r); perr != nil {
		return perr
	}
	if err != nil {
		r.op(false, fmt.Sprintf("traced run: %v", err))
		return nil
	}
	r.op(got == ref.out, fmt.Sprintf("traced assembly reproduces omcast: %v vs %v", got, ref.out))
	checkOutputs(r, name, spec.cfg.Seed, got, "traced point")

	s.report(r)
	setRuntime(r, rt0, rt1, float64(got.Events))
	counter := func(metric string) float64 { return reg.Counter(metric, "").Value() }
	r.set("eventsim.events", float64(got.Events))
	r.set("eventsim.queue_high_water", sess.queueHighWater(reg))
	r.set("churn.joins", counter("omcast_churn_joins_total"))
	r.set("churn.rejoins", counter("omcast_churn_rejoins_total"))
	r.set("churn.departures", counter("omcast_churn_departures_total"))
	r.set("rost.switches", counter("omcast_rost_switches_total"))
	r.set("cer.episodes", counter("omcast_cer_episodes_total"))
	r.set("cer.repair_requests", counter("omcast_cer_repair_requests_total"))
	r.set("trace.spans", float64(log.count()))
	overhead := wall.Seconds()/ref.wall.Seconds() - 1
	r.set("trace.overhead", overhead)
	r.printf("traced wall %.3fs vs untraced %.3fs: tracing overhead %+.1f%%", wall.Seconds(), ref.wall.Seconds(), 100*overhead)
	path, err := log.write(spanDir(), fmt.Sprintf("%s-seed%d.jsonl.gz", name, spec.cfg.Seed))
	if err != nil {
		return err
	}
	r.printf("spans: %d written to %s", log.count(), path)
	return nil
}
