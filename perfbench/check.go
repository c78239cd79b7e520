package main

import "fmt"

// pinnedSeed is the seed whose outputs are pinned: a run with it must
// reproduce these exact counts, whatever the worker count or machine.
const pinnedSeed = 1

// pinned are the outputs of one estimate request at pinnedSeed: its error
// count and its total syndrome weight (fired detectors summed over shots).
// For serve-mixed both are summed over the workload's keys.
type pinned struct {
	errors, syndromeWeight int
}

var pinnedValues = map[string]pinned{
	"memory-d9-dense":   {errors: 2, syndromeWeight: 22062},
	"memory-d13-raw":    {errors: 1997, syndromeWeight: 457502},
	"surgery-d5-sparse": {errors: 0, syndromeWeight: 6869},
	"serve-mixed":       {errors: 57, syndromeWeight: 6232},
}

// checkPinned compares a run's outputs with the pinned table when seed is
// the pinned seed. A negative weight means the run did not measure it.
func checkPinned(table map[string]pinned, workload string, seed int64, errors, weight int) error {
	if seed != pinnedSeed {
		return nil
	}
	want, ok := table[workload]
	if !ok {
		return fmt.Errorf("%s: no pinned outputs", workload)
	}
	if errors != want.errors || (weight >= 0 && weight != want.syndromeWeight) {
		return fmt.Errorf("%s seed %d: errors %d, syndrome weight %d; pinned %d and %d",
			workload, seed, errors, weight, want.errors, want.syndromeWeight)
	}
	return nil
}
