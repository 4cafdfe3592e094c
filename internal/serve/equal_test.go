package serve

import "slices"

// equalInts reports whether two decision sequences are identical.
func equalInts(a, b []int) bool { return slices.Equal(a, b) }
