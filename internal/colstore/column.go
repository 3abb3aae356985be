// Package colstore implements the in-memory column store substrate used by
// Flood and every baseline index in this repository.
//
// Following §7.1 of the paper, each column stores 64-bit integers using
// block-delta compression: values are divided into consecutive blocks of 128
// entries and each value is encoded as the bit-packed delta to the minimum
// value in its block. The encoding supports constant-time random access and
// fast block-at-a-time decoding for scans. Every block additionally carries
// its min/max (a zone map) so scans can skip or exact-accept whole blocks
// without decoding them. Columns may optionally carry a cumulative-aggregate
// companion (prefix sums) that lets exact sub-range aggregations complete in
// O(1) without touching the underlying data.
package colstore

import "math/bits"

// BlockSize is the number of values per compression block (§7.1).
const BlockSize = 128

// Column is an immutable, block-delta-compressed vector of int64 values.
type Column struct {
	n       int
	mins    []int64  // per-block minimum value (also the zone-map lower bound)
	maxs    []int64  // per-block maximum value (zone-map upper bound)
	widths  []uint8  // per-block delta bit width (0..64)
	offsets []uint32 // per-block starting word index into words
	words   []uint64 // packed deltas
}

// NewColumn compresses values into a Column. The input slice is not retained.
func NewColumn(values []int64) *Column {
	n := len(values)
	nBlocks := (n + BlockSize - 1) / BlockSize
	c := &Column{
		n:       n,
		mins:    make([]int64, nBlocks),
		maxs:    make([]int64, nBlocks),
		widths:  make([]uint8, nBlocks),
		offsets: make([]uint32, nBlocks),
	}
	totalWords := 0
	for b := 0; b < nBlocks; b++ {
		lo := b * BlockSize
		hi := lo + BlockSize
		if hi > n {
			hi = n
		}
		blk := values[lo:hi]
		minV, maxV := blk[0], blk[0]
		for _, v := range blk[1:] {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		w := bits.Len64(uint64(maxV) - uint64(minV))
		c.mins[b] = minV
		c.maxs[b] = maxV
		c.widths[b] = uint8(w)
		c.offsets[b] = uint32(totalWords)
		totalWords += (len(blk)*w + 63) / 64
	}
	c.words = make([]uint64, totalWords)
	for b := 0; b < nBlocks; b++ {
		lo := b * BlockSize
		hi := lo + BlockSize
		if hi > n {
			hi = n
		}
		w := uint(c.widths[b])
		if w == 0 {
			continue
		}
		base := uint(c.offsets[b]) * 64
		minV := c.mins[b]
		for r, v := range values[lo:hi] {
			delta := uint64(v) - uint64(minV)
			pos := base + uint(r)*w
			wi := pos >> 6
			off := pos & 63
			c.words[wi] |= delta << off
			if off+w > 64 {
				c.words[wi+1] |= delta >> (64 - off)
			}
		}
	}
	return c
}

// Len returns the number of values in the column.
func (c *Column) Len() int { return c.n }

// NumBlocks returns the number of compression blocks.
func (c *Column) NumBlocks() int { return len(c.mins) }

// BlockBounds returns the zone map of block b: the minimum and maximum value
// stored in it. Scans use it to skip blocks disjoint from a predicate and to
// exact-accept blocks fully contained in one, without decoding either way.
func (c *Column) BlockBounds(b int) (min, max int64) { return c.mins[b], c.maxs[b] }

// Get returns the value at row i in constant time.
func (c *Column) Get(i int) int64 {
	b := i / BlockSize
	w := uint(c.widths[b])
	if w == 0 {
		return c.mins[b]
	}
	pos := uint(c.offsets[b])*64 + uint(i%BlockSize)*w
	return c.mins[b] + int64(unpack(c.words, pos, w))
}

// unpack returns the w-bit delta packed at bit position pos of words.
func unpack(words []uint64, pos, w uint) uint64 {
	wi := pos >> 6
	off := pos & 63
	delta := words[wi] >> off
	if off+w > 64 {
		delta |= words[wi+1] << (64 - off)
	}
	return delta & mask(w)
}

// DecodeBlock decodes block b into out and returns the number of valid
// values (BlockSize for all but possibly the last block). out must have
// room for BlockSize values. Common bit widths (0/8/16/32/64) take
// specialized word-at-a-time loops.
func (c *Column) DecodeBlock(b int, out []int64) int {
	lo := b * BlockSize
	cnt := c.n - lo
	if cnt > BlockSize {
		cnt = BlockSize
	}
	minV := c.mins[b]
	w := uint(c.widths[b])
	if w == 0 {
		for i := 0; i < cnt; i++ {
			out[i] = minV
		}
		return cnt
	}
	words := c.words[c.offsets[b]:]
	out = out[:cnt]
	switch w {
	case 8:
		decodeFixed(words, out, minV, 8)
	case 16:
		decodeFixed(words, out, minV, 16)
	case 32:
		decodeFixed(words, out, minV, 32)
	case 64:
		for i := range out {
			out[i] = minV + int64(words[i])
		}
	default:
		m := mask(w)
		pos := uint(0)
		for i := range out {
			wi := pos >> 6
			off := pos & 63
			delta := words[wi] >> off
			if off+w > 64 {
				delta |= words[wi+1] << (64 - off)
			}
			out[i] = minV + int64(delta&m)
			pos += w
		}
	}
	return cnt
}

// decodeFixed unpacks deltas of a width that evenly divides 64 (8, 16, or
// 32 bits), so every value lies inside a single word and words unpack with
// shifts only — no cross-word carries and no per-value division.
func decodeFixed(words []uint64, out []int64, minV int64, w uint) {
	per := 64 / w
	m := mask(w)
	i := 0
	for ; i+int(per) <= len(out); i += int(per) {
		wd := words[uint(i)/per]
		for k := uint(0); k < per; k++ {
			out[i+int(k)] = minV + int64((wd>>(k*w))&m)
		}
	}
	if i < len(out) {
		wd := words[uint(i)/per]
		for sh := uint(0); i < len(out); i++ {
			out[i] = minV + int64((wd>>sh)&m)
			sh += w
		}
	}
}

// Decode materializes the whole column into a fresh slice.
func (c *Column) Decode() []int64 {
	out := make([]int64, c.n)
	var buf [BlockSize]int64
	nBlocks := (c.n + BlockSize - 1) / BlockSize
	for b := 0; b < nBlocks; b++ {
		cnt := c.DecodeBlock(b, buf[:])
		copy(out[b*BlockSize:], buf[:cnt])
	}
	return out
}

// LowerBound returns the smallest index i in [start, end) with Get(i) >= v,
// or end if no such index exists. The rows [start, end) must be sorted
// ascending; rows outside the window may hold anything. A block lying wholly
// inside the window starts with its zone-map minimum, so a binary search over
// those minima finds the one block holding the answer without unpacking any
// data; a binary search inside that block (or inside a partial block at
// either edge of the window) then unpacks one value per probe. Edge blocks
// may hold other rows, so their zone maps never steer the search.
func (c *Column) LowerBound(start, end int, v int64) int {
	if start >= end {
		return start
	}
	first, last := start/BlockSize, (end-1)/BlockSize
	b := first
	if first != last {
		// Find the first interior block whose first row is >= v; the answer
		// lies in the block before it. When there is none, the answer lies
		// in the last block if the row just before it is still below v.
		lo, hi := first+1, last
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if c.mins[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		b = lo - 1
		if lo == last && c.Get(last*BlockSize-1) < v {
			b = last
		}
	}
	return c.blockLowerBound(b, max(start, b*BlockSize), min(end, (b+1)*BlockSize), v)
}

// blockLowerBound is LowerBound over rows [lo, hi) of block b, unpacking one
// value per probe with the block's metadata loaded once.
func (c *Column) blockLowerBound(b, lo, hi int, v int64) int {
	minV := c.mins[b]
	w := uint(c.widths[b])
	if w == 0 {
		if minV >= v {
			return lo
		}
		return hi
	}
	bitBase := uint(c.offsets[b]) * 64
	base := b * BlockSize
	i, j := lo-base, hi-base
	for i < j {
		mid := int(uint(i+j) >> 1)
		if minV+int64(unpack(c.words, bitBase+uint(mid)*w, w)) < v {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return base + i
}

// LowerBoundHint is LowerBound seeded with a predicted position (e.g. from a
// learned model), which may lie anywhere, even outside [start, end). An
// exponential search gallops outward over the minima of the blocks wholly
// inside the window, starting at the hint's block, to bracket the answer
// without unpacking any data; LowerBound then finishes inside the bracket.
func (c *Column) LowerBoundHint(start, end, hint int, v int64) int {
	first, last := start/BlockSize, (end-1)/BlockSize
	if last-first < 2 {
		return c.LowerBound(start, end, v)
	}
	b := min(max(hint/BlockSize, first+1), last-1)
	lo, hi := start, end
	if c.mins[b] < v {
		for step := 1; ; step <<= 1 {
			lo = b * BlockSize
			if b += step; b >= last {
				break
			}
			if c.mins[b] >= v {
				hi = b * BlockSize
				break
			}
		}
	} else {
		for step := 1; ; step <<= 1 {
			hi = b * BlockSize
			if b -= step; b <= first {
				break
			}
			if c.mins[b] < v {
				lo = b * BlockSize
				break
			}
		}
	}
	return c.LowerBound(lo, hi, v)
}

// SizeBytes reports the in-memory footprint of the compressed column.
func (c *Column) SizeBytes() int64 {
	return int64(len(c.mins)*8 + len(c.maxs)*8 + len(c.widths) + len(c.offsets)*4 + len(c.words)*8)
}

// UncompressedSizeBytes reports the footprint the column would occupy as a
// plain []int64.
func (c *Column) UncompressedSizeBytes() int64 { return int64(c.n) * 8 }

// computeMaxs rebuilds the per-block maxima from the packed data. Decoded
// (persisted) columns call this because the wire format predates zone maps
// and carries only per-block minima.
func (c *Column) computeMaxs() {
	c.maxs = make([]int64, len(c.mins))
	var buf [BlockSize]int64
	for b := range c.mins {
		cnt := c.DecodeBlock(b, buf[:])
		maxV := buf[0]
		for _, v := range buf[1:cnt] {
			if v > maxV {
				maxV = v
			}
		}
		c.maxs[b] = maxV
	}
}

func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}
