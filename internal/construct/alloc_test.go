package construct

import (
	"testing"
	"time"

	"omcast/internal/overlay"
	"omcast/internal/topology"
)

// TestWarmJoinAllocCeiling pins a join on a warm tree at zero allocations
// for every strategy that samples candidates: the candidate list (sample
// plus root) is built in the Env's reusable buffer, not copied per join.
func TestWarmJoinAllocCeiling(t *testing.T) {
	cases := []struct {
		name string
		bw   float64
		make func(env *Env) Strategy
	}{
		{"MinDepth", 2, func(env *Env) Strategy { return &MinDepth{Env: env} }},
		{"LongestFirst", 2, func(env *Env) Strategy { return &LongestFirst{Env: env} }},
		{"ContributorPriority/free-rider", 0.5, func(env *Env) Strategy {
			return &ContributorPriority{Env: env, Inner: &MinDepth{Env: env}}
		}},
		{"ContributorPriority/contributor", 2, func(env *Env) Strategy {
			return &ContributorPriority{Env: env, Inner: &MinDepth{Env: env}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := testEnv(7)
			s := c.make(env)
			tree, err := overlay.NewTree(0, 4, env.Delay)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3000; i++ {
				m := tree.NewMember(topology.NodeID(i%500), 2, time.Duration(i))
				if err := s.Join(tree, m, time.Duration(i)); err != nil {
					t.Fatalf("warm-up join %d: %v", i, err)
				}
			}
			m := tree.NewMember(42, c.bw, 3000)
			allocs := testing.AllocsPerRun(200, func() {
				if err := s.Join(tree, m, 3000); err != nil {
					t.Fatal(err)
				}
				if err := tree.Detach(m); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("%s Join+Detach allocates %.1f times per cycle on a warm tree, want 0", s.Name(), allocs)
			}
		})
	}
}
