package omcast_test

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"omcast"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// repairSpanKinds are the span kinds a CER outage episode emits: the repair
// episode and its detect/fetch/stall children.
var repairSpanKinds = []string{`"kind":"repair"`, `"kind":"detect"`, `"kind":"fetch"`, `"kind":"stall"`}

// repairSpanLines runs a small traced streaming simulation and keeps only
// the repair-episode span lines, in emission order.
func repairSpanLines(t *testing.T, rec omcast.Recovery) []byte {
	t.Helper()
	cfg := omcast.Config{
		Seed:       21,
		Algorithm:  omcast.MinimumDepth,
		TargetSize: 150,
		Topology:   omcast.SmallTopology(),
		Warmup:     300 * time.Second,
		Measure:    600 * time.Second,
	}
	var buf bytes.Buffer
	_, err := omcast.RunStreamingWithTrace(cfg, omcast.StreamConfig{Recovery: rec, GroupSize: 3}, &buf,
		omcast.TraceOptions{Spans: true})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, `"event":"span"`) {
			continue
		}
		for _, k := range repairSpanKinds {
			if strings.Contains(line, k) {
				out.WriteString(line)
				out.WriteByte('\n')
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run `go test -run RepairSpanGolden -update .` to regenerate): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d drifted:\n got  %s\n want %s\n(rerun with -update only for an intended span-content change)", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s drifted: %d lines vs %d in the golden", name, len(gl), len(wl))
}

// TestRepairSpanGolden pins the content of the CER repair episode spans —
// IDs, timing, outcomes and attributes of every repair/detect/fetch/stall
// span — for striped CER and for the single-source baseline, whose planner
// branch (one server, everything else in the backlog) the omcast-trace CLI
// cannot reach.
func TestRepairSpanGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  omcast.Recovery
	}{
		{"repair_spans_cer.golden", omcast.CER},
		{"repair_spans_single.golden", omcast.SingleSource},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := repairSpanLines(t, tc.rec)
			for _, k := range repairSpanKinds {
				if !bytes.Contains(got, []byte(k)) {
					t.Fatalf("no %s spans in the run", k)
				}
			}
			checkGolden(t, tc.name, got)
		})
	}
}
