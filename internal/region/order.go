package region

import "math"

// FloatKey maps v to a key whose unsigned order is v's order: a negative
// value's bits are inverted, a positive one's sign bit is set. −0 lands
// just below +0; a caller that wants them tied adds +0 first, which turns
// −0 into +0. A NaN lands outside ±Inf, so callers leave NaN out.
func FloatKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// KeySorter sorts keys ascending and ids along with them, stably: the ids
// of equal keys keep their order. It makes no comparison between float
// values: a short list is sorted by insertion on the keys, a longer one by
// a least-significant-byte radix sort that counts all eight byte positions
// in one pass and then scatters once per position on which the keys
// differ, so keys that differ only in their low bytes cost few passes. Its
// scatter buffers are kept from one sort to the next; the zero value is
// ready to use.
type KeySorter struct {
	keys []uint64
	ids  []int32
}

// insertionMax is the longest list KeySorter sorts by insertion, where the
// radix sort's 8 KB of counts cost more than the moves.
const insertionMax = 64

// Sort sorts keys and ids in place.
func (s *KeySorter) Sort(keys []uint64, ids []int32) {
	n := len(keys)
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			k, id, j := keys[i], ids[i], i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j], ids[j] = keys[j-1], ids[j-1]
			}
			keys[j], ids[j] = k, id
		}
		return
	}
	var count [8][256]int32
	for _, k := range keys {
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	if cap(s.keys) < n {
		s.keys, s.ids = make([]uint64, n), make([]int32, n)
	}
	srcK, srcI := keys, ids
	dstK, dstI := s.keys[:n], s.ids[:n]
	for d := range count {
		c, shift := &count[d], uint(8*d)
		if c[byte(srcK[0]>>shift)] == int32(n) {
			continue // every key has this byte
		}
		at := int32(0)
		for b, m := range c {
			c[b], at = at, at+m
		}
		for j, k := range srcK {
			b := byte(k >> shift)
			dstK[c[b]], dstI[c[b]] = k, srcI[j]
			c[b]++
		}
		srcK, dstK = dstK, srcK
		srcI, dstI = dstI, srcI
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(ids, srcI)
	}
}
