package bench

import (
	"path/filepath"
	"testing"
)

func TestSuiteNamesUnique(t *testing.T) {
	for _, quick := range []bool{false, true} {
		seen := map[string]bool{}
		for _, c := range Suite(quick) {
			if c.Name == "" || c.Bench == nil {
				t.Fatalf("malformed case %+v", c)
			}
			if seen[c.Name] {
				t.Fatalf("duplicate case %q", c.Name)
			}
			seen[c.Name] = true
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := Report{
		Date:      "2026-08-05",
		Revision:  "0123abc",
		NProc:     2,
		GoVersion: "go0.0",
		Quick:     true,
		Results: []Result{
			{Name: "a", N: 10, NsPerOp: 123.5, AllocsPerOp: 2, BytesPerOp: 64},
		},
		Headline: map[string]float64{"fig4/x": 1.25},
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != rep.Date || got.Revision != rep.Revision || got.NProc != rep.NProc ||
		len(got.Results) != 1 || got.Results[0].NsPerOp != 123.5 {
		t.Fatalf("round trip mangled the report: %+v", got)
	}
	if got.Headline["fig4/x"] != 1.25 {
		t.Fatalf("headline lost: %+v", got.Headline)
	}
}

func TestCompare(t *testing.T) {
	prev := Report{Results: []Result{
		{Name: "steady", NsPerOp: 100, AllocsPerOp: 1},
		{Name: "removed", NsPerOp: 50},
		{Name: "zero", NsPerOp: 0},
	}}
	cur := Report{Results: []Result{
		{Name: "steady", NsPerOp: 130, AllocsPerOp: 0}, // +30%
		{Name: "added", NsPerOp: 10},
		{Name: "zero", NsPerOp: 10},
	}}
	deltas, regressed := Compare(prev, cur, 0.25)
	if !regressed {
		t.Fatal("30% growth above a 25% threshold must regress")
	}
	if len(deltas) != 1 || deltas[0].Name != "steady" || !deltas[0].Regressed {
		t.Fatalf("unexpected deltas: %+v", deltas)
	}
	if deltas[0].Ratio < 1.29 || deltas[0].Ratio > 1.31 {
		t.Fatalf("ratio = %v, want ~1.3", deltas[0].Ratio)
	}
	// Within threshold: no regression.
	cur.Results[0].NsPerOp = 120
	if _, regressed := Compare(prev, cur, 0.25); regressed {
		t.Fatal("20% growth below a 25% threshold must pass")
	}
	// Provenance differs between any two hosts or commits; it must not
	// change the verdict.
	prev.Revision, prev.NProc = "aaa", 1
	cur.Revision, cur.NProc = "bbb", 64
	if _, regressed := Compare(prev, cur, 0.25); regressed {
		t.Fatal("differing revision/nproc must not regress")
	}
}

// TestRunQuickSuite executes the real quick suite once end to end. This is
// the bench harness's own smoke test; per-case time is bounded by
// testing.Benchmark's internal budget.
func TestRunQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite run skipped in -short mode")
	}
	var lines int
	rep, err := Run("2026-08-05", true, func(string, ...any) { lines++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(Suite(true)) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(Suite(true)))
	}
	if lines != len(rep.Results) {
		t.Fatalf("progress lines = %d, want %d", lines, len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.N <= 0 {
			t.Fatalf("case %s measured nothing: %+v", r.Name, r)
		}
	}
	if len(rep.Headline) == 0 {
		t.Fatal("no headline figure metrics")
	}
}
