package core

import "llmsql/internal/rel"

// The vote merge as it was before it tallied in place: two maps keyed by
// each vote's rel.Row.AllKey string. It is the oracle of FuzzMergeVotes
// in merge_fuzz_test.go: mergeVotes must return the same value on every
// vote set. Kept verbatim apart from the ref prefix.

// refMergeVotes resolves one attribute cell from its self-consistency votes:
// the value observed most often wins; ties break toward the earliest vote
// seed; all-unparsable vote sets yield NULL.
func refMergeVotes(votes []attrVote, t rel.DataType) rel.Value {
	counts := map[string]int{}
	values := map[string]rel.Value{}
	var order []string
	for _, vote := range votes {
		if !vote.ok {
			continue
		}
		k := (rel.Row{vote.val}).AllKey()
		if _, seen := counts[k]; !seen {
			values[k] = vote.val
			order = append(order, k)
		}
		counts[k]++
	}
	best := ""
	bestN := 0
	for _, k := range order {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	if bestN == 0 {
		return rel.NullOf(t)
	}
	return values[best]
}
