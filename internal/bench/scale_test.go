package bench

import (
	"cmp"
	"os"
	"slices"
	"testing"
)

// ScaleBytesPerMemberCeiling is the committed memory budget for the
// struct-of-arrays core: retained heap per steady-state member at M=10^5,
// full underlay, ROST. The 2026-08 measurement on the reference container
// was ~440 B/member (tree arrays, churn bookkeeping, kernel queue and the
// ID-map growth from the 30-minute window's churn included); the ceiling
// leaves ~2.3x headroom for legitimate growth while still catching a
// per-member map or pointer-graph regression, which costs multiples.
const ScaleBytesPerMemberCeiling = 1024.0

// ScaleGrowthCeiling bounds how much ns/event may grow from M=10^3 to
// M=10^5 (full underlay, ROST, one process). A per-event cost that grows
// with the tree shows here long before M=10^6 becomes unaffordable: the
// quadratic Sample scratch regrowth measured 8.9 in its committed curve and
// 5.9-7.2 under this gate on a 2-CPU x86-64 host, where the fixed code
// measured 2.6-3.1. The ceiling leaves at least 1.6x headroom above the
// fixed code and still fails the quadratic one.
const ScaleGrowthCeiling = 5.0

// TestScaleQuickPoint exercises the scale runner end to end at a tiny size:
// every observable must be populated and the deterministic event count must
// repeat across runs.
func TestScaleQuickPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("scale point skipped in -short mode")
	}
	run := func() ScalePoint {
		pts, err := RunScale([]int{300}, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 1 {
			t.Fatalf("got %d points, want 1", len(pts))
		}
		return pts[0]
	}
	p := run()
	if p.Events == 0 || p.AvgSize <= 0 {
		t.Fatalf("empty scale point: %+v", p)
	}
	if p.HeapBytes == 0 || p.BytesPerMember <= 0 {
		t.Fatalf("no memory observables: %+v", p)
	}
	if p.WallNs <= 0 || p.NsPerEvent <= 0 {
		t.Fatalf("no time observables: %+v", p)
	}
	if q := run(); q.Events != p.Events || q.AvgSize != p.AvgSize || q.AvgDisruptions != p.AvgDisruptions {
		t.Fatalf("deterministic fields differ across runs: %+v vs %+v", p, q)
	}
}

// TestScaleSmokeMemoryBudget is the CI scale-smoke gate: one M=10^5 run on
// the full underlay asserting the committed bytes/member ceiling. Gated on
// OMCAST_SCALE_SMOKE=1 because the run takes minutes (more under -race);
// the scale-smoke CI job sets the variable.
func TestScaleSmokeMemoryBudget(t *testing.T) {
	if os.Getenv("OMCAST_SCALE_SMOKE") != "1" {
		t.Skip("set OMCAST_SCALE_SMOKE=1 to run the M=100000 smoke")
	}
	pts, err := RunScale([]int{100_000}, false, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.AvgSize < 90_000 {
		t.Fatalf("steady-state size %.0f never reached the 100k target", p.AvgSize)
	}
	if p.BytesPerMember > ScaleBytesPerMemberCeiling {
		t.Fatalf("bytes/member = %.0f exceeds the committed ceiling %.0f (heap %d over %.0f members)",
			p.BytesPerMember, ScaleBytesPerMemberCeiling, p.HeapBytes, p.AvgSize)
	}
	t.Logf("scale smoke: %.0f B/member (ceiling %.0f), %.1f ns/event over %d events",
		p.BytesPerMember, ScaleBytesPerMemberCeiling, p.NsPerEvent, p.Events)
}

// TestScaleSmokeGrowth is the CI scale-smoke growth gate: M=10^3 and
// M=10^5 in one process, asserting ns/event(10^5) <= ScaleGrowthCeiling x
// ns/event(10^3). An M=10^3 run lasts ~20 ms and single runs vary by
// ±40%, so the gate uses the median of 15 of them. Gated like the memory
// budget because the M=10^5 run takes seconds to minutes; it runs without
// the race detector, whose overhead would distort the ratio.
func TestScaleSmokeGrowth(t *testing.T) {
	if os.Getenv("OMCAST_SCALE_SMOKE") != "1" {
		t.Skip("set OMCAST_SCALE_SMOKE=1 to run the M=1000 vs M=100000 growth gate")
	}
	const smallRuns = 15
	sizes := make([]int, smallRuns, smallRuns+1)
	for i := range sizes {
		sizes[i] = 1000
	}
	pts, err := RunScale(append(sizes, 100_000), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	large := pts[smallRuns]
	smalls := pts[:smallRuns]
	slices.SortFunc(smalls, func(a, b ScalePoint) int { return cmp.Compare(a.NsPerEvent, b.NsPerEvent) })
	small := smalls[smallRuns/2]
	t.Logf("M=1000 ns/event over %d runs: min %.1f median %.1f max %.1f; M=100000: %.1f",
		smallRuns, smalls[0].NsPerEvent, small.NsPerEvent, smalls[smallRuns-1].NsPerEvent, large.NsPerEvent)
	ratio := large.NsPerEvent / small.NsPerEvent
	if ratio > ScaleGrowthCeiling {
		t.Fatalf("ns/event grew %.2fx from M=%d (%.1f) to M=%d (%.1f), ceiling %.1fx",
			ratio, small.Members, small.NsPerEvent, large.Members, large.NsPerEvent, ScaleGrowthCeiling)
	}
	t.Logf("scale growth: %.2fx (ceiling %.1fx)", ratio, ScaleGrowthCeiling)
}
