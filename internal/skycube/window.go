package skycube

import (
	"math"
	"slices"

	"caqe/internal/preference"
)

// A node's window is a key-ascending run of entries cut into blocks of at
// most blockCap. The key is a Z-address (zKey): the quanta of the node's
// lanes on a fixed grid per output dimension, their bits interleaved, lane 0
// the most significant. Quantising is monotone on every lane and
// interleaving monotone lanes is monotone, so w ⪯ p implies zKey(w) ≤
// zKey(p): a point can only be weakly dominated by entries with a key ≤ its
// own and can only dominate entries with a key ≥ its own: insertAt's
// prefix and suffix. The Z-address keeps spatial neighbours together, so a
// block's per-lane bounds are tight and one test against them can rule out
// the whole block (insertAt, evictMasked). The prefix scan tests a window's
// first block only in a window of at least firstBlockTest blocks: in a
// smaller one that block's lower bounds are about the window's own minimum,
// which lies below nearly every point. The suffix scan of a window of a
// single block scans it entry by entry for the same reason with the upper
// bounds (DESIGN §7.1 has the counts behind these choices).
//
// Every block holds at least one entry; its bounds contain the lanes of
// every live entry it holds (they may be wider: a killed entry does not
// shrink them), and its head's last key is its last entry's. An insert
// shifts the entries of one block, and splits it when full.

// blockCap is the most entries a window block holds.
const blockCap = 32

// firstBlockTest is the fewest blocks a window has for the prefix scan to
// test its first block against the block's bounds.
const firstBlockTest = 8

// block is the head of a run of consecutive window entries: what the walks
// read about the run, held by value in the node's slice of heads so that a
// walk over blocks reads one contiguous slice, and a pointer to the entries
// themselves. last is the key of e[n-1], the one key the binary seek and the
// prefix walk's block test read.
type block struct {
	lo, hi preference.Lanes // contain the lanes of every live entry in e[:n]
	n      int
	last   uint64 // e[n-1].key: set by bound and wherever n grows
	e      *[blockCap]sharedEntry
}

// bound recomputes the block's bounds over its live entries, and its last
// key: empty bounds (+Inf above −Inf) when there are none, so that both
// block tests fail.
func (b *block) bound() {
	inf := math.Inf(1)
	b.lo = preference.Lanes{inf, inf, inf, inf}
	b.hi = preference.Lanes{-inf, -inf, -inf, -inf}
	for i := range b.e[:b.n] {
		if b.e[i].alive != 0 {
			b.widen(&b.e[i].proj)
		}
	}
	if b.n > 0 {
		b.last = b.e[b.n-1].key
	}
}

// widen grows the bounds to contain p. A NaN lane is left out: it is never
// ≤ anything (preference.WeakLanes), so no block test needs it.
func (b *block) widen(p *preference.Lanes) {
	for k, x := range p {
		if x < b.lo[k] {
			b.lo[k] = x
		}
		if x > b.hi[k] {
			b.hi[k] = x
		}
	}
}

// zBits is the width of one lane's quantum: four lanes fill the key.
const zBits = 16

// zTop is the largest quantum.
const zTop = 1<<zBits - 1

// spreadDims fills s.zs with every output dimension of vals quantised and
// spread (quantum, spread): once per point, however many nodes it visits.
func (s *SharedSkyline) spreadDims(vals []float64) {
	s.growZs(len(vals))
	for d, x := range vals {
		s.zs[d] = spread(quantum(x, s.zlo[d], s.zscale[d]))
	}
}

// spreadLanes is spreadDims for the one node sn: its lanes' dimensions
// only, for the paths that visit one node (find, InsertForQuery).
func (s *SharedSkyline) spreadLanes(sn *sharedNode, vals []float64) {
	s.growZs(len(vals))
	for _, d := range sn.lanes() {
		s.zs[d] = spread(quantum(vals[d], s.zlo[d], s.zscale[d]))
	}
}

// growZs makes s.zs, and the grid with it, cover dims dimensions. A
// dimension past the grid quantises over [0, 1].
func (s *SharedSkyline) growZs(dims int) {
	for len(s.zs) < dims {
		s.zs = append(s.zs, 0)
		if len(s.zscale) < len(s.zs) {
			s.zlo, s.zscale = append(s.zlo, 0), append(s.zscale, zTop+1)
		}
	}
}

// lanes is the part of sn's subspace its lanes hold: the first four
// dimensions, all of them when the subspace fits the lanes. The key and the
// block bounds read them at every node, the comparisons only where the
// subspace fits.
func (sn *sharedNode) lanes() preference.Subspace {
	return sn.sub[:min(len(sn.sub), len(preference.Lanes{}))]
}

// project writes vals' coordinates on sn's lanes into p, zero-padded.
func (sn *sharedNode) project(vals []float64, p *preference.Lanes) {
	*p = preference.Lanes{}
	for i, d := range sn.lanes() {
		p[i] = vals[d]
	}
}

// zKey is the Z-address at sn of the point whose spread dimensions zs holds
// (spreadDims, spreadLanes): its lanes' quanta interleaved, lane 0 the most
// significant. Quantising once per point and not once per node visit
// matters where a visit is a comparison or two: on batch-indep the quantum
// and the spread at every visit took 8 % of a profile. Keeping the quanta
// per point instead cost a cold load at each seed of an admitted query's
// node, as much as computing them.
func (sn *sharedNode) zKey(zs []uint64) uint64 {
	var z uint64
	for i, d := range sn.lanes() {
		z |= zs[d] << uint(len(preference.Lanes{})-1-i)
	}
	return z
}

// quantum maps x onto [0, zTop], monotone non-decreasing: linearly over
// [lo, lo+(zTop+1)/scale), clamped outside it. NaN maps to 0; −0 and +0 map
// alike.
func quantum(x, lo, scale float64) uint64 {
	t := (x - lo) * scale
	if !(t > 0) {
		return 0
	}
	if t >= zTop {
		return zTop
	}
	return uint64(int64(t)) // t is in (0, zTop): the cheaper signed conversion
}

// spread moves the 16 low bits of x to every fourth bit, a byte at a time
// through spreadByte: two loads in place of a chain of twelve shifts and
// masks.
func spread(x uint64) uint64 {
	return uint64(spreadByte[x&0xFF]) | uint64(spreadByte[x>>8&0xFF])<<32
}

// spreadByte[i] holds the 8 bits of i at every fourth bit.
var spreadByte = func() (t [256]uint32) {
	for i := range t {
		for b := 0; b < 8; b++ {
			t[i] |= uint32(i>>b&1) << (4 * b)
		}
	}
	return t
}()

// seek returns the position of the first entry whose key is > z (above) or
// ≥ z, or (len(blocks), 0) if there is none: a binary search over the heads'
// last keys, then one within the block.
func (sn *sharedNode) seek(z uint64, above bool) (bi, ei int) {
	blocks := sn.blocks
	lo, hi := 0, len(blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if past(blocks[m].last, z, above) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(blocks) {
		return lo, 0
	}
	b := &blocks[lo]
	i, j := 0, b.n
	for i < j {
		m := int(uint(i+j) >> 1)
		if past(b.e[m].key, z, above) {
			j = m
		} else {
			i = m + 1
		}
	}
	return lo, i
}

// past reports whether key lies past z for seek: above it, or at it too
// unless above.
func past(key, z uint64, above bool) bool { return key > z || !above && key == z }

// tieStart returns the position of the first entry of the run of key z
// that ends just before position (bi, ei).
func (sn *sharedNode) tieStart(bi, ei int, z uint64) (int, int) {
	for {
		if ei == 0 {
			if bi == 0 {
				return 0, 0
			}
			if prev := &sn.blocks[bi-1]; prev.last == z {
				bi, ei = bi-1, prev.n
			} else {
				return bi, 0
			}
		}
		if sn.blocks[bi].e[ei-1].key != z {
			return bi, ei
		}
		ei--
	}
}

// liveInRun returns the live entry of payload in sn's run of entries with
// key z, or nil: one binary search plus a walk over the ties. Dead entries
// of the same payload (killed, not yet compacted) are passed over.
func liveInRun(sn *sharedNode, payload int, z uint64) *sharedEntry {
	for bi, ei := sn.seek(z, false); bi < len(sn.blocks); bi, ei = bi+1, 0 {
		b := &sn.blocks[bi]
		for ; ei < b.n; ei++ {
			w := &b.e[ei]
			if w.key != z {
				return nil
			}
			if int(w.payload) == payload && w.alive != 0 {
				return w
			}
		}
	}
	return nil
}

// place inserts e after every entry whose key is ≤ its own. It shifts the
// entries of one block; a full block either hands an entry at its end a
// fresh block or is split in halves. The head it writes is taken after the
// split's insert into the slice of heads, which may move them all.
func (s *SharedSkyline) place(sn *sharedNode, e *sharedEntry) {
	bi, ei := sn.seek(e.key, true)
	if ei == 0 && bi > 0 && (bi == len(sn.blocks) || sn.blocks[bi-1].n < blockCap) {
		bi, ei = bi-1, sn.blocks[bi-1].n // the end of the block before
	}
	if bi == len(sn.blocks) { // an empty window
		sn.blocks = append(sn.blocks, s.newBlock())
	}
	if b := &sn.blocks[bi]; b.n == blockCap {
		nb := s.newBlock()
		into := bi + 1 // the block e goes into
		if ei < blockCap {
			const half = blockCap / 2
			nb.n = copy(nb.e[:], b.e[half:])
			b.n = half
			b.bound()
			nb.bound()
			if ei > half {
				ei -= half
			} else {
				into = bi
			}
		} else {
			ei = 0
		}
		sn.blocks = slices.Insert(sn.blocks, bi+1, nb)
		bi = into
	}
	b := &sn.blocks[bi]
	copy(b.e[ei+1:b.n+1], b.e[ei:b.n])
	b.e[ei] = *e
	b.n++
	b.last = b.e[b.n-1].key
	b.widen(&e.proj)
	sn.size++
}

// newBlock returns an empty block, on spare entry storage if there is some.
func (s *SharedSkyline) newBlock() block {
	var b block
	if n := len(s.spare); n > 0 {
		b.e, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		b.e = new([blockCap]sharedEntry)
	}
	b.bound()
	return b
}

// compact rewrites a node's window without its dead entries, preserving the
// order of the live ones, packed into full blocks; the storage of the blocks
// left over becomes spare.
func (s *SharedSkyline) compact(sn *sharedNode) {
	out, n := 0, 0 // write position: never past the read position
	for _, b := range sn.blocks {
		for i := range b.e[:b.n] {
			if b.e[i].alive == 0 {
				continue
			}
			if n == blockCap {
				out, n = out+1, 0
			}
			sn.blocks[out].e[n] = b.e[i]
			n++
		}
	}
	keep := out + 1
	if n == 0 {
		keep = 0
	}
	for i := range sn.blocks {
		b := &sn.blocks[i]
		switch {
		case i < keep-1:
			b.n = blockCap
		case i == keep-1:
			b.n = n
		default:
			s.spare = append(s.spare, b.e)
			continue
		}
		b.bound()
	}
	clear(sn.blocks[keep:])
	sn.blocks = sn.blocks[:keep]
	sn.size -= sn.dead
	sn.dead = 0
}
