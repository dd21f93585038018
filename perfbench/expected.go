package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// expectedJSON holds each sim workload's deterministic outputs per seed, as
// recorded by `perfbench --record lo-hi` from the public omcast API. A run
// whose outputs differ from its seed's entry counts as failed.
//
//go:embed expected.json
var expectedJSON []byte

// expectedTable is workload -> seed -> outputs.
type expectedTable map[string]map[string]simOutputs

var (
	expectedOnce sync.Once
	expected     expectedTable
	expectedErr  error
)

func lookupExpected(workload string, seed int64) (simOutputs, bool) {
	expectedOnce.Do(func() {
		expectedErr = json.Unmarshal(expectedJSON, &expected)
	})
	if expectedErr != nil {
		return simOutputs{}, false
	}
	out, ok := expected[workload][strconv.FormatInt(seed, 10)]
	return out, ok
}

// recordExpected runs the sim workloads' points (only workload's, if it
// is set) for seeds lo..hi through the public omcast API and merges them
// into perfbench/expected.json.
func recordExpected(span, workload string) error {
	lo, hi, ok := strings.Cut(span, "-")
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || a > b {
		return fmt.Errorf("bad seed range %q, want lo-hi", span)
	}
	fresh := expectedTable{}
	for name, spec := range map[string]func(int64) simSpec{"rost-100k": rostSpec, "cer-8k": cerSpec} {
		if workload != "" && workload != name {
			continue
		}
		fresh[name] = map[string]simOutputs{}
		for seed := a; seed <= b; seed++ {
			p, err := runPoint(spec(seed))
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			fresh[name][strconv.FormatInt(seed, 10)] = p.out
			fmt.Printf("%s seed %d: %v\n", name, seed, p.out)
		}
	}
	// Merge into the file as it is now, so recordings of different
	// workloads can run side by side.
	path := filepath.Join("perfbench", "expected.json")
	table := expectedTable{}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &table); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	for name, seeds := range fresh {
		if table[name] == nil {
			table[name] = map[string]simOutputs{}
		}
		for seed, out := range seeds {
			table[name][seed] = out
		}
	}
	b2, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b2, '\n'), 0o644)
}
