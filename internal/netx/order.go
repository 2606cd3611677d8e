package netx

import (
	"cmp"
	"slices"
)

// PrefixOrder returns the permutation of [0, n) that orders prefix(i)
// by Compare, equal prefixes by index: the order a prefix-ordered walk
// over rows kept in some other order visits them in.
//
// IPv4 prefixes sort as packed integer keys (address, length, index),
// with no comparator call. The rest (128-bit prefixes, 4-in-6 included,
// the zero value, and everything once n outgrows the key's index bits)
// is the tail of the same function: a comparator sort whose result is
// placed around the IPv4 keys by family, zero values first.
func PrefixOrder(n int, prefix func(i int) Prefix) []int32 {
	const idxBits = 26
	packed := n <= 1<<idxBits
	keys := make([]uint64, 0, n)
	var rest []int32
	for i := 0; i < n; i++ {
		if p := prefix(i); packed && p.width == 32 {
			keys = append(keys, p.hi|uint64(p.bits)<<idxBits|uint64(i))
		} else {
			rest = append(rest, int32(i))
		}
	}
	slices.Sort(keys)
	slices.SortFunc(rest, func(a, b int32) int {
		if c := prefix(int(a)).Compare(prefix(int(b))); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	zeros, _ := slices.BinarySearchFunc(rest, 1, func(i int32, _ int) int {
		if prefix(int(i)).width == 0 {
			return -1
		}
		return 1
	})
	order := make([]int32, 0, n)
	order = append(order, rest[:zeros]...)
	for _, k := range keys {
		order = append(order, int32(k&(1<<idxBits-1)))
	}
	return append(order, rest[zeros:]...)
}
