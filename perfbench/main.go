// Command perfbench is the repository benchmark: three workloads that each
// load a different layer of omcast, measured end to end with tracing off,
// and per layer in a separate traced run. See NOTES.md for the workloads,
// the metric definitions and which layer metric should move which
// end-to-end metric.
//
// Usage (from the repository root; run.sh builds and runs this):
//
//	perfbench --workload rost-100k|cer-8k|live-fanout --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Human-readable lines (provenance stamp, every metric with
// its sample count and tail percentile) come before it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports with tracing off. Each is
// defined for all three workloads (NOTES.md gives the per-workload meaning).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_ns_per_op", "ns"},
}

// perLayer are the metrics every workload reports in a traced run. A layer
// a workload never runs reports 0: the predicted "no change" for that
// workload.
var perLayer = []metricDef{
	{"construct.joins", "count"},
	{"construct.join_ns_p50", "ns"},
	{"construct.join_s_total", "s"},
	{"topology.delay_calls", "count"},
	{"topology.delay_ns", "ns"},
	{"cer.select_calls", "count"},
	{"cer.select_ns", "ns"},
	{"stream.failure_self_ns", "ns"},
	{"cer.episodes", "count"},
	{"cer.repair_requests", "count"},
	{"eventsim.events", "count"},
	{"eventsim.queue_high_water", "count"},
	{"churn.joins", "count"},
	{"churn.rejoins", "count"},
	{"churn.departures", "count"},
	{"rost.switches", "count"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"runtime.alloc_bytes_per_event", "B"},
	{"node.handle_self_ns_p50", "ns"},
	{"node.handle_self_ns_p99", "ns"},
	{"transport.send_ns_p50", "ns"},
	{"transport.send_ns_p99", "ns"},
	{"transport.sends", "count"},
	{"wire.decode_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"node.src_gap_us_p99", "us"},
	{"node.rx_data", "count"},
	{"node.rx_ctrl", "count"},
	{"node.retx_sent", "count"},
	{"node.wire_rejects", "count"},
	{"node.guard_drops", "count"},
	{"node.rejoins", "count"},
	{"cpu.eventsim", "ratio"},
	{"cpu.overlay", "ratio"},
	{"cpu.construct", "ratio"},
	{"cpu.rost", "ratio"},
	{"cpu.churn", "ratio"},
	{"cpu.cer", "ratio"},
	{"cpu.stream", "ratio"},
	{"cpu.topology", "ratio"},
	{"cpu.node", "ratio"},
	{"cpu.wire", "ratio"},
	{"cpu.gc", "ratio"},
	{"cpu.syscall", "ratio"},
	{"cpu.bench", "ratio"},
	{"cpu.runtime", "ratio"},
	{"trace.spans", "count"},
	{"trace.overhead", "ratio"},
}

// report collects one run's results.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	// lines are human-readable detail printed before the result line:
	// timings with sample counts, workload-specific end-to-end figures.
	lines []string
}

func newReport() *report {
	return &report{correct: true, values: make(map[string]float64)}
}

// op counts one attempted operation, failed unless ok.
func (r *report) op(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		r.correct = false
		r.printf("FAILED %s", what)
	}
}

// ops counts n attempted operations of which failed failed, without
// marking the run incorrect (a lost datagram is a failed delivery, not a
// wrong output).
func (r *report) ops(n, failed int) {
	r.attempted += n
	r.failed += failed
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// timing records t's median under name and prints it with its tail.
func (r *report) timing(name string, t timing) {
	r.values[name] = median(t.samples)
	r.lines = append(r.lines, t.String())
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result builds the final line over defs. An end-to-end metric that a run
// failed to produce marks the run incorrect: those must never read 0.
func (r *report) result(defs []metricDef, mustBeSet bool) jsonResult {
	out := jsonResult{Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if mustBeSet && (!ok || v == 0) {
			r.correct = false
			r.printf("MISSING end-to-end metric %s", d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if r.attempted == 0 {
		r.op(false, "no operation ran")
	}
	out.Correct, out.Attempted, out.Failed = r.correct, r.attempted, r.failed
	return out
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds time.Duration, trace bool, r *report) error{
	"rost-100k":   runRost100k,
	"cer-8k":      runCer8k,
	"live-fanout": runLiveFanout,
}

func main() {
	workload := flag.String("workload", "", "rost-100k, cer-8k or live-fanout")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	record := flag.String("record", "", "record the sim workloads' deterministic outputs for seeds lo-hi (e.g. 1-32) into perfbench/expected.json; --workload narrows it to one")
	flag.Parse()

	if *record != "" {
		if err := recordExpected(*record, *workload); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	traced := *trace == 1
	st := newStamp(*workload, *seed, traced)
	b, _ := json.Marshal(st)
	fmt.Printf("# stamp %s\n", b)

	r := newReport()
	if err := run(*seed, time.Duration(*seconds)*time.Second, traced, r); err != nil {
		for _, l := range r.lines {
			fmt.Println(l)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs, mustBeSet := endToEnd, true
	if traced {
		defs, mustBeSet = perLayer, false
	}
	res := r.result(defs, mustBeSet)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
