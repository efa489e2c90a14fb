package region

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"caqe/internal/preference"
)

// Bits is a set of region indices, 64 to a word: index i is bit i%64 of
// word i/64.
type Bits []uint64

// NewBits returns an empty set sized for indices below n.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Has reports whether i is a member.
func (b Bits) Has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Set adds i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Unset removes i.
func (b Bits) Unset(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Next returns the smallest member ≥ from, or -1 if none:
//
//	for i := b.Next(0); i >= 0; i = b.Next(i + 1) { ... }
func (b Bits) Next(from int) int {
	w := from >> 6
	if w >= len(b) {
		return -1
	}
	if rest := b[w] >> uint(from&63); rest != 0 {
		return from + bits.TrailingZeros64(rest)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// Count returns the number of members.
func (b Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// UnsetTo removes every member ≤ i.
func (b Bits) UnsetTo(i int) {
	clear(b[:i>>6])
	b[i>>6] &^= ^uint64(0) >> uint(63-i&63)
}

// CountTo returns the number of members ≤ i.
func (b Bits) CountTo(i int) int {
	n := 0
	for _, w := range b[:i>>6] {
		n += bits.OnesCount64(w)
	}
	return n + bits.OnesCount64(b[i>>6]<<uint(63-i&63))
}

// CountRange returns the number of members in [from, to).
func (b Bits) CountRange(from, to int) int {
	if from >= to {
		return 0
	}
	fw, tw := from>>6, (to-1)>>6
	lo, hi := ^uint64(0)<<uint(from&63), ^uint64(0)>>uint(63-(to-1)&63)
	if fw == tw {
		return bits.OnesCount64(b[fw] & lo & hi)
	}
	n := bits.OnesCount64(b[fw]&lo) + bits.OnesCount64(b[tw]&hi)
	for _, w := range b[fw+1 : tw] {
		n += bits.OnesCount64(w)
	}
	return n
}

// CornerRanks indexes one corner of a region list — every region's Lo, or
// every region's Hi — by rank on each output dimension: the regions whose
// corner lies at or below, or at or above, a probe on one dimension come out
// as a Bits over region index. A query's verdict on a probe is then the AND
// of its preference dimensions' weak sets and the OR of their strict sets,
// which is QueryDims.Pair read against every region at once.
//
// Per dimension the index keeps the coordinates in ascending order with
// their regions, a NaN coordinate left out: it lies at or below no probe
// and at or above none, as Pair's comparisons have it. It also keeps every
// rankStride-th prefix set, the regions of the r·rankStride lowest
// coordinates, so a probe finds its rank by binary search and completes
// the prefix from the last kept set with fewer than rankStride bits. Its
// memory is nd·(m/rankStride+2) sets of m bits: below nd = rankStride
// dimensions, less than one set per region would take.
type CornerRanks struct {
	words int
	dims  []rankDim
}

type rankDim struct {
	vals  []float64 // the coordinates, ascending, NaN left out
	ids   []int32   // the region of each coordinate
	marks []uint64  // row r, words long: the regions of vals[:r*rankStride]
	all   Bits      // the regions of every coordinate
}

const rankStride = 16

// NewCornerRanks indexes the corners corner(0) … corner(m-1) over nd
// output dimensions.
func NewCornerRanks(m, nd int, corner func(i int) []float64) *CornerRanks {
	c := &CornerRanks{words: (m + 63) / 64, dims: make([]rankDim, nd)}
	keys := make([]uint64, 0, m)
	var sorter KeySorter
	for k := range c.dims {
		d := &c.dims[k]
		keys, d.ids = keys[:0], make([]int32, 0, m)
		for i := 0; i < m; i++ {
			if v := corner(i)[k]; !math.IsNaN(v) {
				keys = append(keys, FloatKey(v))
				d.ids = append(d.ids, int32(i))
			}
		}
		// Equal coordinates may lie in any order (−0 below +0 here): a rank
		// is never taken between two of them.
		sorter.Sort(keys, d.ids)
		d.vals = make([]float64, len(d.ids))
		for p, id := range d.ids {
			d.vals[p] = corner(int(id))[k]
		}
		d.all = NewBits(m)
		c.remark(k, 0)
	}
	return c
}

// remark recomputes dimension k's kept prefix sets from rank from on, and
// the set of all its regions.
func (c *CornerRanks) remark(k, from int) {
	d := &c.dims[k]
	rows := len(d.ids)/rankStride + 1
	if n := rows * c.words; len(d.marks) < n {
		d.marks = append(d.marks, make([]uint64, n-len(d.marks))...)
	} else {
		d.marks = d.marks[:n]
	}
	for r := from/rankStride + 1; r < rows; r++ {
		row := Bits(d.marks[r*c.words : (r+1)*c.words])
		copy(row, d.marks[(r-1)*c.words:r*c.words])
		for _, i := range d.ids[(r-1)*rankStride : r*rankStride] {
			row.Set(int(i))
		}
	}
	c.prefix(d.all, k, len(d.ids))
}

// Move re-ranks region i, whose corner is now x, on every dimension:
// O(m) per dimension where a rebuild sorts.
func (c *CornerRanks) Move(i int, x []float64) {
	for k := range c.dims {
		d := &c.dims[k]
		v := x[k]
		at := slices.Index(d.ids, int32(i))
		if at >= 0 && d.vals[at] == v {
			d.vals[at] = v // the rank holds; a zero may change sign
			continue
		}
		from := len(d.ids)
		if at >= 0 {
			from = at
			d.ids = slices.Delete(d.ids, at, at+1)
			d.vals = slices.Delete(d.vals, at, at+1)
		}
		if !math.IsNaN(v) {
			to := sort.Search(len(d.vals), func(p int) bool { return d.vals[p] > v })
			d.ids = slices.Insert(d.ids, to, int32(i))
			d.vals = slices.Insert(d.vals, to, v)
			from = min(from, to)
		}
		c.remark(k, from)
	}
}

// NotBelow writes into dst the members of within whose corner lies strictly
// below x[k] on no dimension dims[k]. With x the per-dimension minimum of
// some points, only these regions' corners can lie at or above one of the
// points on every dimension of dims. A NaN coordinate lies below nothing,
// and nothing lies below a NaN x[k], so neither rules a region out. Each
// dimension costs its rank search, one kept prefix set and fewer than
// rankStride single bits.
func (c *CornerRanks) NotBelow(dst, within Bits, dims preference.Subspace, x []float64) {
	copy(dst, within)
	for k, d := range dims {
		if math.IsNaN(x[k]) {
			continue
		}
		lt, _ := c.ranks(d, x[k])
		dd, r := &c.dims[d], lt/rankStride
		for w, m := range dd.marks[r*c.words : (r+1)*c.words] {
			dst[w] &^= m
		}
		for _, i := range dd.ids[r*rankStride : lt] {
			dst.Unset(int(i))
		}
	}
}

// prefix writes into dst the regions of the p lowest coordinates on
// dimension k.
func (c *CornerRanks) prefix(dst Bits, k, p int) {
	d := &c.dims[k]
	r := p / rankStride
	copy(dst, d.marks[r*c.words:(r+1)*c.words])
	for _, i := range d.ids[r*rankStride : p] {
		dst.Set(int(i))
	}
}

// ranks returns how many coordinates on dimension k lie strictly below x
// (lt) and at or below it (le); x is not NaN.
func (c *CornerRanks) ranks(k int, x float64) (lt, le int) {
	vals := c.dims[k].vals
	le = sort.Search(len(vals), func(p int) bool { return vals[p] > x })
	lt = sort.Search(le, func(p int) bool { return vals[p] >= x })
	return lt, le
}

// below writes into le the regions whose corner lies at or below x on
// dimension k, and into lt those strictly below it.
func (c *CornerRanks) below(k int, x float64, le, lt Bits) {
	if math.IsNaN(x) {
		clear(le)
		clear(lt)
		return
	}
	nlt, nle := c.ranks(k, x)
	c.prefix(le, k, nle)
	c.prefix(lt, k, nlt)
}

// above writes into ge the regions whose corner lies at or above x on
// dimension k, and into gt those strictly above it.
func (c *CornerRanks) above(k int, x float64, ge, gt Bits) {
	if math.IsNaN(x) {
		clear(ge)
		clear(gt)
		return
	}
	nlt, nle := c.ranks(k, x)
	c.prefix(ge, k, nlt)
	c.prefix(gt, k, nle)
	all := c.dims[k].all
	for w := range all {
		ge[w] = all[w] &^ ge[w]
		gt[w] = all[w] &^ gt[w]
	}
}

// Probe holds one corner's per-dimension sets against a CornerRanks: the
// weak sets (at or below the corner for Below, at or above it for Above)
// and the strict ones. Its buffers grow to the index and are reused.
type Probe struct {
	words        int
	weak, strict []uint64 // dimension-major, words per dimension
}

func (p *Probe) grow(c *CornerRanks) {
	p.words = c.words
	n := len(c.dims) * c.words
	p.weak = slices.Grow(p.weak[:0], n)[:n]
	p.strict = slices.Grow(p.strict[:0], n)[:n]
}

func (p *Probe) sets(k int) (weak, strict Bits) {
	at := k * p.words
	return p.weak[at : at+p.words], p.strict[at : at+p.words]
}

// Below probes c with corner x on every dimension: the regions whose corner
// lies at or below x, and strictly below it.
func (p *Probe) Below(c *CornerRanks, x []float64) {
	p.grow(c)
	for k := range c.dims {
		weak, strict := p.sets(k)
		c.below(k, x[k], weak, strict)
	}
}

// Above probes c with corner x on every dimension: the regions whose corner
// lies at or above x, and strictly above it.
func (p *Probe) Above(c *CornerRanks, x []float64) {
	p.grow(c)
	for k := range c.dims {
		weak, strict := p.sets(k)
		c.above(k, x[k], weak, strict)
	}
}

// Weak writes into dst the members of within that are weak on every
// dimension of pref: for a Below probe, the regions whose corner weakly
// dominates the probe in pref; for an Above probe, those it weakly
// dominates. An empty pref keeps all of within.
func (p *Probe) Weak(dst, within Bits, pref preference.Subspace) {
	for w := range dst {
		m := within[w]
		for _, k := range pref {
			m &= p.weak[k*p.words+w]
		}
		dst[w] = m
	}
}

// Dominant writes into dst the members of within that are weak on every
// dimension of pref and strict on one: the dominance of Weak. An empty pref
// keeps none.
func (p *Probe) Dominant(dst, within Bits, pref preference.Subspace) {
	for w := range dst {
		m, s := within[w], uint64(0)
		for _, k := range pref {
			m &= p.weak[k*p.words+w]
			s |= p.strict[k*p.words+w]
		}
		dst[w] = m & s
	}
}
