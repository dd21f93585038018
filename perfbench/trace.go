package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed call at a layer boundary. Spans that belong together
// (one packet's hops, one failure episode's calls) share ID; Span is unique
// in the run and Parent names the span that caused this one (0 for none).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; later spans are counted but
// dropped.
const maxSpans = 1 << 20

// spanLog keeps spans in memory until the run ends. It is safe for
// concurrent use.
type spanLog struct {
	base time.Time

	mu      sync.Mutex
	next    uint64 //guarded by mu
	spans   []span //guarded by mu
	dropped int    //guarded by mu
}

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the span clock: nanoseconds since the log was created.
func (l *spanLog) now() int64 {
	//lint:ignore handler-purity reason: benchmark timing around simulator calls; the time never reaches the simulation
	return int64(time.Since(l.base))
}

// id reserves a unique span id, so a span can be named as a parent before
// it ends.
func (l *spanLog) id() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// add records a finished span.
func (l *spanLog) add(s span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

func (l *spanLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans) + l.dropped
}

// write stores the spans as gzip-compressed JSON lines under dir.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}

// spanDir is where traced runs leave their spans, inside the build output
// directory so the source tree stays clean.
func spanDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "spans")
}

// rtSample reads the runtime counters the per-layer GC and allocation
// metrics are differences of.
type rtSample struct {
	gcCycles   uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{
		gcCycles:   uint64(val(0)),
		allocBytes: uint64(val(1)),
		gcCPU:      val(2),
		totalCPU:   val(3),
	}
}

// setRuntime reports the GC and allocation metrics between a and b, with
// allocation bytes per unit of work (events for the simulator, delivered
// datagrams for the live path).
func setRuntime(r *report, a, b rtSample, work float64) {
	r.set("gc.cycles", float64(b.gcCycles-a.gcCycles))
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		r.set("gc.cpu_frac", (b.gcCPU-a.gcCPU)/cpu)
	}
	if work > 0 {
		r.set("runtime.alloc_bytes_per_event", float64(b.allocBytes-a.allocBytes)/work)
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// profiler captures a CPU profile of the traced run in memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// profileLayers maps a package path prefix to the per-layer CPU metric a
// sample is charged to.
var profileLayers = []struct{ prefix, metric string }{
	{"omcast/internal/eventsim.", "cpu.eventsim"},
	{"omcast/internal/overlay.", "cpu.overlay"},
	{"omcast/internal/construct.", "cpu.construct"},
	{"omcast/internal/rost.", "cpu.rost"},
	{"omcast/internal/churn.", "cpu.churn"},
	{"omcast/internal/cer.", "cpu.cer"},
	{"omcast/internal/stream.", "cpu.stream"},
	{"omcast/internal/topology.", "cpu.topology"},
	{"omcast/internal/node.", "cpu.node"},
	{"omcast/internal/wire.", "cpu.wire"},
	{"main.", "cpu.bench"},
	{"omcast/perfbench.", "cpu.bench"}, // the benchmark's name in its test binary
}

// profileMetrics lists every metric classify can return.
var profileMetrics = []string{
	"cpu.eventsim", "cpu.overlay", "cpu.construct", "cpu.rost", "cpu.churn",
	"cpu.cer", "cpu.stream", "cpu.topology", "cpu.node", "cpu.wire",
	"cpu.gc", "cpu.syscall", "cpu.bench", "cpu.runtime",
}

// classify charges one CPU sample, given its stack leaf first. Garbage
// collection work (background marking, sweeping, allocation assists) is
// cpu.gc and socket I/O is cpu.syscall wherever they are called from.
// Otherwise the sample goes to the innermost frame in a layer's package, so
// runtime helpers (map iteration, allocation) count towards the layer that
// called them; the benchmark's own frames are cpu.bench, including codec
// calls its taps make to read datagrams. Anything else is cpu.runtime.
func classify(stack []string) string {
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart":
			return "cpu.gc"
		}
	}
	for _, fn := range stack {
		for _, p := range []string{"syscall.", "internal/runtime/syscall.", "internal/poll.", "net."} {
			if strings.HasPrefix(fn, p) {
				return "cpu.syscall"
			}
		}
	}
	for i, fn := range stack {
		for _, l := range profileLayers {
			if !strings.HasPrefix(fn, l.prefix) {
				continue
			}
			if l.metric == "cpu.wire" {
				for _, up := range stack[i+1:] {
					if strings.HasPrefix(up, l.prefix) {
						continue
					}
					if strings.HasPrefix(up, "main.") || strings.HasPrefix(up, "omcast/perfbench.") {
						return "cpu.bench"
					}
					if strings.HasPrefix(up, "omcast/") {
						break
					}
				}
			}
			return l.metric
		}
	}
	return "cpu.runtime"
}

// stop ends the profile and reports each layer's share of the CPU samples.
func (p *profiler) stop(r *report) error {
	pprof.StopCPUProfile()
	stacks, err := profileStacks(&p.buf)
	if err != nil {
		return err
	}
	var total float64
	share := make(map[string]float64)
	for _, s := range stacks {
		total += s.count
		share[classify(s.fns)] += s.count
	}
	if total > 0 {
		for _, m := range profileMetrics {
			r.set(m, share[m]/total)
		}
	}
	r.printf("cpu profile: %.0f samples", total)
	return nil
}

// stackSample is one profile sample: its call stack, leaf first, and its
// sample count.
type stackSample struct {
	fns   []string
	count float64
}

// profileStacks decodes a gzipped pprof profile into its samples. It reads
// only the fields it needs from profile.proto: Profile.sample (2),
// Profile.location (4), Profile.function (5), Profile.string_table (6);
// Sample.location_id (1) and value (2); Location.id (1) and line (4);
// Line.function_id (1); Function.id (1) and name (2).
func profileStacks(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count uint64
	}
	var (
		samples  []sample
		locFns   = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName   = map[uint64]uint64{}   // function id -> string index
		strtab   []string
		firstErr error
	)
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	keep(protoFields(raw, func(field int, v uint64, b []byte) {
		switch field {
		case 2: // Sample
			var s sample
			keep(protoFields(b, func(f int, v uint64, pb []byte) {
				switch f {
				case 1:
					s.locs = append(s.locs, protoVarints(pb, v)...)
				case 2:
					if vals := protoVarints(pb, v); len(vals) > 0 && s.count == 0 {
						s.count = vals[0]
					}
				}
			}))
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			keep(protoFields(b, func(f int, v uint64, lb []byte) {
				switch f {
				case 1:
					id = v
				case 4:
					keep(protoFields(lb, func(lf int, lv uint64, _ []byte) {
						if lf == 1 {
							fns = append(fns, lv)
						}
					}))
				}
			}))
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			keep(protoFields(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}))
			fnName[id] = name
		case 6:
			strtab = append(strtab, string(b))
		}
	}))
	if firstErr != nil {
		return nil, fmt.Errorf("decoding profile: %w", firstErr)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: float64(s.count)}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strtab)) {
					st.fns = append(st.fns, strtab[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// protoFields walks the fields of one protobuf message, calling fn with the
// field number and either its varint value (b nil) or its length-delimited
// bytes. Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
			fn(field, v, nil)
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			fn(field, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wt, field)
		}
	}
	return nil
}

// protoVarints returns a repeated varint field's values: the single value v
// when unpacked (b nil), the packed list otherwise.
func protoVarints(b []byte, v uint64) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
