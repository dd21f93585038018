package stream

import (
	"testing"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/topology"
	"omcast/internal/tracing"
	"omcast/internal/xrand"
)

// TestIntervalPathMatchesTracedPath pins that tracing is a pure observer of
// the one episode path: over randomized small overlays and failure
// schedules, a run with Config.Trace set must produce bit-identical counters,
// packet outcomes and per-member ratios to the same run without it.
// Scenarios include overlapping failure windows, repeat failures of the same
// subtree, late joiners and partial recovery bandwidth.
func TestIntervalPathMatchesTracedPath(t *testing.T) {
	type outcome struct {
		res      Result
		episodes int
		eln      int
		requests int
		repaired int
		lost     int
	}
	for seed := int64(0); seed < 12; seed++ {
		run := func(traced bool) outcome {
			srng := xrand.New(4000 + seed) // scenario shape, shared by both runs
			tree, err := overlay.NewTree(0, 100, delayFn)
			if err != nil {
				t.Fatal(err)
			}
			attach := topology.NodeID(1)
			mk := func(parent *overlay.Member, bw float64) *overlay.Member {
				m := tree.NewMember(attach, bw, 0)
				attach++
				if err := tree.Attach(m, parent); err != nil {
					t.Fatal(err)
				}
				return m
			}
			nRelays := 2 + srng.Intn(3)
			var relays, leaves, helpers []*overlay.Member
			for i := 0; i < nRelays; i++ {
				r := mk(tree.Root(), 6)
				relays = append(relays, r)
				for j := 0; j < 1+srng.Intn(3); j++ {
					c := mk(r, 4)
					leaves = append(leaves, c)
					if srng.Intn(2) == 0 {
						leaves = append(leaves, mk(c, 2))
					}
				}
			}
			for i := 0; i < srng.Intn(4); i++ {
				helpers = append(helpers, mk(tree.Root(), 2))
			}
			cfg := Config{GroupSize: len(helpers), Striped: seed%2 == 0}
			if traced {
				cfg.Trace = tracing.New(1, tracing.RecorderFunc(func(tracing.Span) {}))
			}
			m := NewModel(tree, delayFn, &fixedSelector{group: helpers}, xrand.New(9000+seed), cfg)
			tree.VisitSubtree(tree.Root(), func(mem *overlay.Member) {
				if mem != tree.Root() {
					m.Register(mem, 0)
				}
			})
			// One late joiner under the first relay: its viewStart postdates
			// the first failure, so the skip branch is exercised.
			late := mk(relays[0], 1)
			m.Register(late, 150*time.Second)
			// Failure schedule: monotone times, overlapping windows (gaps of
			// 2-30 s vs a 15 s outage), repeat victims included.
			now := 100 * time.Second
			for i := 0; i < 4+srng.Intn(4); i++ {
				victim := relays[srng.Intn(len(relays))]
				m.OnFailure(victim, now)
				now += time.Duration(2+srng.Intn(29)) * time.Second
			}
			// Depart a couple of members mid-run, finish the rest.
			for i := 0; i < 2 && i < len(leaves); i++ {
				m.Depart(leaves[i].ID, now+100*time.Second)
			}
			m.Finish(1000 * time.Second)
			return outcome{
				res:      m.Result(),
				episodes: m.Episodes,
				eln:      m.ELNMessages,
				requests: m.RepairRequests,
				repaired: m.PacketsRepaired,
				lost:     m.PacketsLost,
			}
		}
		plain, traced := run(false), run(true)
		if plain.episodes != traced.episodes || plain.eln != traced.eln ||
			plain.requests != traced.requests {
			t.Fatalf("seed %d: episode counters diverge: plain %+v traced %+v", seed, plain, traced)
		}
		if plain.repaired != traced.repaired || plain.lost != traced.lost {
			t.Fatalf("seed %d: packet outcomes diverge: plain repaired=%d lost=%d, traced repaired=%d lost=%d",
				seed, plain.repaired, plain.lost, traced.repaired, traced.lost)
		}
		if len(plain.res.Ratios) != len(traced.res.Ratios) {
			t.Fatalf("seed %d: ratio counts diverge: %d vs %d", seed, len(plain.res.Ratios), len(traced.res.Ratios))
		}
		for i := range plain.res.Ratios {
			if plain.res.Ratios[i] != traced.res.Ratios[i] {
				t.Fatalf("seed %d: ratio[%d] = %g (plain) vs %g (traced)",
					seed, i, plain.res.Ratios[i], traced.res.Ratios[i])
			}
		}
	}
}
