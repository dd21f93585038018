package overlay

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"omcast/internal/topology"
	"omcast/internal/xrand"
)

// TestSampleAllocCeiling pins Sample's steady-state allocation budget: zero.
// The per-call dedup map became the tree's epoch-stamped scratch in PR 5; the
// result slice itself is now a tree-owned reusable buffer (returned with
// capacity == length so caller appends copy). A regression here fails go
// test, not just the bench report.
func TestSampleAllocCeiling(t *testing.T) {
	tree, err := NewTree(0, 100, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
	}
	rng := xrand.New(1)
	// One warm call sizes the scratch buffers.
	if got := tree.Sample(rng, 100, nil); len(got) != 100 {
		t.Fatalf("warm sample returned %d members", len(got))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if got := tree.Sample(rng, 100, nil); len(got) != 100 {
			t.Fatal("short sample")
		}
	})
	if allocs > 0 {
		t.Fatalf("Sample allocates %.1f times per call, want 0", allocs)
	}
}

// TestSampleGrowingTreeAllocs counts allocations while the tree grows, the
// regime the steady-state ceiling above cannot see: pre-population adds one
// member per join, so scratch sized to exactly the current tree would
// allocate (and zero an O(n) slice) on every call. Geometric growth keeps
// the number of allocating calls logarithmic in the final size.
func TestSampleGrowingTreeAllocs(t *testing.T) {
	tree, err := NewTree(0, 100, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	const members, maxAllocatingCalls = 20_000, 32
	var before, after runtime.MemStats
	allocating := 0
	for i := 0; i < members; i++ {
		m := tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
		runtime.ReadMemStats(&before)
		tree.Sample(rng, 100, m)
		runtime.ReadMemStats(&after)
		if after.Mallocs > before.Mallocs {
			allocating++
		}
	}
	if allocating > maxAllocatingCalls {
		t.Fatalf("%d of %d Sample calls on a growing tree allocated, want <= %d",
			allocating, members, maxAllocatingCalls)
	}
}

// TestAppendAncestorsAllocCeiling pins the append-style ancestor walk at
// zero allocations once the caller's buffer is warm, and checks it agrees
// with Ancestors.
func TestAppendAncestorsAllocCeiling(t *testing.T) {
	tree, err := NewTree(0, 1, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.Root()
	for i := 0; i < 64; i++ { // a chain: the deepest member has 64 ancestors
		m := tree.NewMember(topology.NodeID(i), 1, time.Duration(i))
		if err := tree.Attach(m, leaf); err != nil {
			t.Fatal(err)
		}
		leaf = m
	}
	buf := tree.AppendAncestors(nil, leaf)
	if want := tree.Ancestors(leaf); !slices.Equal(buf, want) || len(buf) != 64 {
		t.Fatalf("AppendAncestors = %d members, Ancestors = %d; want the same 64", len(buf), len(want))
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = tree.AppendAncestors(buf[:0], leaf)
	})
	if allocs > 0 {
		t.Fatalf("AppendAncestors allocates %.1f times per call with a warm buffer, want 0", allocs)
	}
}

// TestSampleResultAppendSafe pins the scratch-buffer contract: the returned
// slice has capacity == length, so any caller that appends to it gets a
// private copy instead of scribbling into the tree's scratch.
func TestSampleResultAppendSafe(t *testing.T) {
	tree, err := NewTree(0, 100, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tree.NewMember(topology.NodeID(i), 0.5, time.Duration(i))
	}
	rng := xrand.New(2)
	got := tree.Sample(rng, 50, nil)
	if cap(got) != len(got) {
		t.Fatalf("Sample returned cap %d != len %d; caller appends would alias the scratch", cap(got), len(got))
	}
	extended := append(got, tree.Root())
	again := tree.Sample(rng, 50, nil)
	if extended[len(extended)-1] != tree.Root() {
		t.Fatal("append result clobbered by the next Sample call")
	}
	_ = again
}

// TestCheckInvariantsAllocCeiling pins both invariant checkers at zero
// steady-state allocations: the incremental path walks the epoch-stamped
// dirty list, and the full path's former per-call seen map is an
// epoch-stamped scratch buffer.
func TestCheckInvariantsAllocCeiling(t *testing.T) {
	tree, err := NewTree(0, 100, func(a, b topology.NodeID) time.Duration { return time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	parents := []*Member{tree.Root()}
	for i := 0; i < 2000; i++ {
		m := tree.NewMember(topology.NodeID(i), 2, time.Duration(i))
		if err := tree.Attach(m, parents[i%len(parents)]); err == nil {
			parents = append(parents, m)
		}
	}
	// Warm both scratch buffers.
	if err := tree.CheckInvariantsFull(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := tree.CheckInvariantsFull(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("CheckInvariantsFull allocates %.1f times per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("CheckInvariants allocates %.1f times per call, want 0", allocs)
	}
}
