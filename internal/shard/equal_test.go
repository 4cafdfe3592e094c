package shard

import "slices"

// equalSeq reports whether two decision sequences are identical.
func equalSeq(a, b []int) bool { return slices.Equal(a, b) }
