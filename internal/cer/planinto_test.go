package cer

import (
	"math"
	"testing"
	"time"

	"omcast/internal/xrand"
)

// mapPlan maps missing sequence numbers to their repair arrival times at the
// requester; packets absent from the map are lost.
type mapPlan map[int64]time.Duration

// oraclePlanRecovery is the original map-based planner, kept verbatim as the
// reference the dense planner is tested against: a second, independently
// shaped statement of the striped and backlog phases.
func oraclePlanRecovery(ep Episode, servers []Server, detail bool) (mapPlan, []ServerPlan) {
	plan := make(mapPlan, ep.LastMissing-ep.FirstMissing+1)
	if len(servers) == 0 || ep.Rate <= 0 {
		return plan, nil
	}
	usable := servers
	if !ep.Striped {
		// Single-source baseline: the request walks the list until a node
		// with spare bandwidth answers; only that node's residual bandwidth
		// is used.
		usable = nil
		for _, s := range servers {
			if s.Epsilon > 0 {
				usable = []Server{s}
				break
			}
		}
		if len(usable) == 0 {
			return plan, nil
		}
	}
	// Striped ranges over [0,1) of the (n mod 100)/100 space.
	type slice struct {
		lo, hi float64
		srv    Server
	}
	var slices []slice
	cum := 0.0
	for _, s := range usable {
		if cum >= 1 || s.Epsilon <= 0 {
			continue
		}
		hi := math.Min(1, cum+s.Epsilon)
		slices = append(slices, slice{lo: cum, hi: hi, srv: s})
		cum = hi
	}
	var det []ServerPlan
	if detail {
		det = make([]ServerPlan, len(slices))
		for i := range slices {
			det[i] = ServerPlan{Server: slices[i].srv, Phase: "striped"}
		}
	}
	record := func(sp *ServerPlan, at time.Duration) {
		if sp.Packets == 0 || at < sp.First {
			sp.First = at
		}
		if at > sp.Last {
			sp.Last = at
		}
		sp.Packets++
	}
	var backlog []int64
	for n := ep.FirstMissing; n <= ep.LastMissing; n++ {
		frac := float64(n%100) / 100
		covered := false
		for i, sl := range slices {
			if frac >= sl.lo && frac < sl.hi {
				at := ep.RequestAt + sl.srv.ChainDelay
				if g := ep.Gen(n); g > at {
					at = g // live forwarding of not-yet-generated packets
				}
				plan[n] = at + sl.srv.Transfer
				if detail {
					record(&det[i], plan[n])
				}
				covered = true
				break
			}
		}
		if !covered {
			backlog = append(backlog, n)
		}
	}
	// Aggregate residual rate for the backlog phase.
	aggregate := 0.0
	for _, s := range usable {
		if s.Epsilon > 0 {
			aggregate += s.Epsilon
		}
	}
	if aggregate <= 0 {
		return plan, oracleCompactDetail(det)
	}
	rate := aggregate * ep.Rate // packets per second
	var back ServerPlan
	if detail {
		back = ServerPlan{Server: usable[0], Phase: "backlog"}
	}
	for k, n := range backlog {
		service := time.Duration(float64(k+1) / rate * float64(time.Second))
		plan[n] = ep.ResumeAt + service + usable[0].Transfer
		if detail {
			record(&back, plan[n])
		}
	}
	if detail && back.Packets > 0 {
		det = append(det, back)
	}
	return plan, oracleCompactDetail(det)
}

// oracleCompactDetail drops servers whose slice covered no packets (an
// episode narrower than the stripe layout).
func oracleCompactDetail(det []ServerPlan) []ServerPlan {
	if det == nil {
		return nil
	}
	out := det[:0]
	for _, d := range det {
		if d.Packets > 0 {
			out = append(out, d)
		}
	}
	return out
}

// TestPlanRecoveryMatchesMapOracle pins PlanRecovery to the map-based oracle
// over randomized episodes and server groups: every packet either appears in
// the oracle plan with the same arrival time or is Lost in both, and the
// per-server detail equals the oracle's. The detail is also checked against
// the dense arrivals directly: shares account for every repaired packet,
// bound their packets' arrivals, are never empty, and the backlog share
// names the first usable server.
func TestPlanRecoveryMatchesMapOracle(t *testing.T) {
	rng := xrand.New(21)
	tree, _ := buildTree(t, 3, 1)
	members := tree.Root().Children()
	var buf []time.Duration // reused across trials, as stream.Model does
	var detail []ServerPlan
	for trial := 0; trial < 400; trial++ {
		rate := 10.0
		first := int64(rng.Intn(5000))
		last := first + int64(rng.Intn(300)) - 1 // empty episodes included
		failedAt := time.Duration(first) * time.Second / 10
		ep := Episode{
			FirstMissing: first,
			LastMissing:  last,
			RequestAt:    failedAt + 5*time.Second,
			ResumeAt:     failedAt + 15*time.Second,
			Rate:         rate,
			Gen:          func(n int64) time.Duration { return time.Duration(float64(n) / rate * float64(time.Second)) },
			Striped:      rng.Intn(2) == 0,
		}
		var servers []Server
		for i := rng.Intn(5); i > 0; i-- {
			servers = append(servers, Server{
				Member:     members[rng.Intn(len(members))],
				Epsilon:    float64(rng.Intn(10)) / rate, // zero-epsilon servers included
				ChainDelay: time.Duration(rng.Intn(50)) * time.Millisecond,
				Transfer:   time.Duration(rng.Intn(50)) * time.Millisecond,
			})
		}
		want, wantDetail := oraclePlanRecovery(ep, servers, true)
		got := PlanRecovery(ep, servers, buf, &detail)
		buf = got
		wantLen := int(last - first + 1)
		if wantLen < 0 {
			wantLen = 0
		}
		if len(got) != wantLen {
			t.Fatalf("trial %d: dense plan has %d entries, want %d", trial, len(got), wantLen)
		}
		repaired := 0
		for n := first; n <= last; n++ {
			at, ok := want[n]
			dense := got[n-first]
			switch {
			case ok && dense == Lost:
				t.Fatalf("trial %d: packet %d repaired at %v in map plan, Lost in dense plan", trial, n, at)
			case !ok && dense != Lost:
				t.Fatalf("trial %d: packet %d Lost in map plan, repaired at %v in dense plan", trial, n, dense)
			case ok && dense != at:
				t.Fatalf("trial %d: packet %d arrival %v (map) vs %v (dense)", trial, n, at, dense)
			}
			if dense != Lost {
				repaired++
			}
		}
		if len(detail) != len(wantDetail) {
			t.Fatalf("trial %d: %d detail shares, oracle has %d", trial, len(detail), len(wantDetail))
		}
		for i := range detail {
			if detail[i] != wantDetail[i] {
				t.Fatalf("trial %d: share %d = %+v, oracle %+v", trial, i, detail[i], wantDetail[i])
			}
		}
		checkDetail(t, trial, ep, servers, got, detail, repaired)
	}
}

// checkDetail checks the per-server shares against the dense arrivals.
func checkDetail(t *testing.T, trial int, ep Episode, servers []Server, arrivals []time.Duration, detail []ServerPlan, repaired int) {
	t.Helper()
	sum := 0
	for i, d := range detail {
		if d.Packets == 0 {
			t.Fatalf("trial %d: share %d has no packets", trial, i)
		}
		sum += d.Packets
		// A share's bounds hold at least its own packets' arrivals.
		inside := 0
		for _, at := range arrivals {
			if at != Lost && at >= d.First && at <= d.Last {
				inside++
			}
		}
		if inside < d.Packets || d.First > d.Last {
			t.Fatalf("trial %d: share %d bounds [%v,%v] hold %d arrivals, want >= %d", trial, i, d.First, d.Last, inside, d.Packets)
		}
		if d.Phase == "backlog" {
			if i != len(detail)-1 {
				t.Fatalf("trial %d: backlog share is not last", trial)
			}
			lead := servers[0]
			if !ep.Striped {
				for _, s := range servers {
					if s.Epsilon > 0 {
						lead = s
						break
					}
				}
			}
			if d.Server != lead {
				t.Fatalf("trial %d: backlog charged to %+v, want the first usable server %+v", trial, d.Server, lead)
			}
		}
	}
	if sum != repaired {
		t.Fatalf("trial %d: shares hold %d packets, plan repairs %d", trial, sum, repaired)
	}
	for i, at := range arrivals {
		if at == Lost {
			continue
		}
		bounded := false
		for _, d := range detail {
			if at >= d.First && at <= d.Last {
				bounded = true
				break
			}
		}
		if !bounded {
			t.Fatalf("trial %d: packet %d arrival %v lies outside every share", trial, ep.FirstMissing+int64(i), at)
		}
	}
}
