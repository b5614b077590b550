package rtree

// This file implements the quantised structure-of-arrays (SoA) filter layer
// of the in-memory node representation: alongside the exact float64 rows
// (node.boxes), every node keeps per-dimension planes of 16-bit grid
// coordinates relative to its own MBB, quantised conservatively outward with
// exactly the v2 directory codec's qlower/qupper (lower bounds round down,
// upper bounds round up on the same grid). The query hot path scans these
// planes instead of the float rows: per node, the intersection test becomes
// one branch-free pass per dimension ANDing a survivor bitmask — and because
// the planes are packed four 16-bit lanes to a uint64 word, each comparison
// instruction processes four entries at once (SWAR), an 8x cut in memory
// traffic and loop iterations against the float64 rows. Only surviving
// entries ever touch the exact rectangles: leaf survivors get one exact
// verification, directory survivors are recursed into directly (the decoded
// plane rect is a superset of the stored rect, so recursing off the
// conservative verdict is admissible by the same containment argument as the
// v2 on-disk format — a false positive costs one extra node visit, never a
// missed result).
//
// Correctness of the grid-domain test rests on monotonicity rather than on
// comparing decoded values: the query window is projected onto the node's
// grid with the SAME rounding functions the entry bounds got on the side of
// each comparison — the query's upper bound with qlower (the entry lower
// bounds' rounding) and the query's lower bound with qupper (the entry upper
// bounds' rounding). qlower and qupper are monotone in their argument, so
//
//	entry.lo <= query.hi  =>  qlower(entry.lo) <= qlower(query.hi)
//	query.lo <= entry.hi  =>  qupper(query.lo) <= qupper(entry.hi)
//
// and any exact intersection survives in grid domain. (Comparing a
// qlower-rounded value against a qupper-rounded one would NOT be safe: on a
// grid region where the decode function is flat, the two roundings can land
// on opposite ends of the plateau.) The same holds for a node whose boxes
// are themselves conservatively decoded grid rects (v2 directories): a grid
// value g with qdecode(g) <= x satisfies g <= qlower(x) by qlower's
// maximality, and symmetrically for qupper. A node whose MBB is degenerate
// in some dimension quantises every bound there to 0, which both roundings
// also assign to every query value — the dimension passes vacuously and the
// exact verify (leaves) or the child's own planes (directories) take over.
//
// Plane provenance matters for cross-store equivalence: an in-memory node
// quantises its exact entry rects, and a node faulted in from a compressed
// (v2) snapshot page adopts the grid coordinates stored in the page verbatim
// (see decodeNodeV2) — the same pure function of the same exact inputs,
// evaluated at encode time. Requantising the conservatively decoded rects
// instead would drift by up to one grid cell (double quantisation), making
// pruning decisions — and with them node visit counts — diverge between
// stores. With verbatim adoption, every store scans identical planes and the
// equivalence matrices stay bit-identical across mem/file/v2/mmap.

import (
	"math"

	"cbb/internal/geom"
)

// PlaneBits is the width of one in-memory quantised plane coordinate. It is
// fixed to the v2 directory grid (DirQuantBits) so that compressed snapshot
// pages can populate the planes verbatim from their stored grid coordinates,
// with no requantisation on the fault-in path and bit-identical pruning
// across stores. The measured slack of the 16-bit grid (see cbbinspect's
// quant-slack report) is far below one part in 10^3 of a node's extent,
// which a conservative filter absorbs as the occasional extra exact check.
const PlaneBits = DirQuantBits

// planeLanes is how many plane coordinates one uint64 word packs.
const planeLanes = 64 / PlaneBits

const (
	// laneH has the top bit of each 16-bit lane set — the SWAR sign mask.
	laneH = 0x8000800080008000
	// lane1 broadcasts a 16-bit value to all four lanes by multiplication.
	lane1 = 0x0001000100010001
	// nibMul gathers the four lane-top bits (at positions 0/16/32/48 after
	// the >>15) into bits 48..51: lane k's bit travels 48-15k places, and no
	// two partial products collide, so one multiply replaces four
	// shift-mask-or steps.
	nibMul = 1<<48 | 1<<33 | 1<<18 | 1<<3
)

// planeWords is the length of one plane (one dimension, one bound) in packed
// uint64 words.
func planeWords(count int) int { return (count + planeLanes - 1) / planeLanes }

// planeBytes is the resident size of the node's quantised filter layer: the
// packed SoA planes plus the MBB they are quantised against. It is charged
// to byte-budget buffer pools on every access alongside the encoded page
// size, and reported by Stats/NodeInfo.
func (n *node) planeBytes() int { return len(n.qplanes)*8 + len(n.qmbb)*8 }

// hasPlanes reports whether the node carries a filter layer consistent with
// its entry count — true for every node this package builds or decodes,
// which the scan kernels rely on; Validate checks it.
func (n *node) hasPlanes(dims int) bool {
	return len(n.qplanes) == 2*dims*planeWords(len(n.entries)) && len(n.qmbb) == 2*dims
}

// planeAt reads one quantised coordinate back out of the packed planes:
// entry i's lower (hi=false) or upper (hi=true) bound in dimension d.
// Validation and the v2 encoder use it; the scan kernels never unpack.
func (n *node) planeAt(dims, d, i int, hi bool) uint16 {
	count := len(n.entries)
	w := planeWords(count)
	base := 2 * d * w
	if hi {
		base += w
	}
	return uint16(n.qplanes[base+i/planeLanes] >> ((i % planeLanes) * PlaneBits))
}

// setPlane writes one quantised coordinate into the packed planes; the word
// must have been zeroed first.
func setPlane(planes []uint64, w, d, i int, hi bool, g uint16) {
	base := 2 * d * w
	if hi {
		base += w
	}
	planes[base+i/planeLanes] |= uint64(g) << ((i % planeLanes) * PlaneBits)
}

// syncPlanes rebuilds the quantised SoA planes from the float64 rows:
// qmbb gets the node MBB (Lo extents then Hi extents, like boxes), and each
// dimension's lo/hi plane gets the entry bounds quantised conservatively
// outward onto that MBB's 16-bit grid. The plane layout is dimension-major
// and packed four lanes per word: with W = planeWords(count), words
// [2dW, (2d+1)W) are dimension d's lower-bound plane and [(2d+1)W, (2d+2)W)
// its upper-bound plane, entry i in lane i%4 of word i/4 — so the kernel
// streams contiguous words per dimension. Padding lanes are zero; their mask
// bits are cleared by quantScan. The v2 fault-in path skips it for directory
// nodes and installs the page's stored grid coordinates instead.
func (n *node) syncPlanes(dims int) {
	count := len(n.entries)
	if cap(n.qmbb) < 2*dims {
		n.qmbb = make([]float64, 2*dims)
	} else {
		n.qmbb = n.qmbb[:2*dims]
	}
	w := planeWords(count)
	need := 2 * dims * w
	if cap(n.qplanes) < need {
		n.qplanes = make([]uint64, need)
	} else {
		n.qplanes = n.qplanes[:need]
		for i := range n.qplanes {
			n.qplanes[i] = 0
		}
	}
	if count == 0 {
		for d := 0; d < 2*dims; d++ {
			n.qmbb[d] = 0
		}
		return
	}
	for d := 0; d < dims; d++ {
		minLo := math.Inf(1)
		maxHi := math.Inf(-1)
		for off := 0; off < len(n.boxes); off += 2 * dims {
			if v := n.boxes[off+d]; v < minLo {
				minLo = v
			}
			if v := n.boxes[off+dims+d]; v > maxHi {
				maxHi = v
			}
		}
		n.qmbb[d] = minLo
		n.qmbb[dims+d] = maxHi
	}
	for d := 0; d < dims; d++ {
		lo, hi := n.qmbb[d], n.qmbb[dims+d]
		off := 0
		for i := 0; i < count; i++ {
			setPlane(n.qplanes, w, d, i, false, qlower(n.boxes[off+d], lo, hi))
			setPlane(n.qplanes, w, d, i, true, qupper(n.boxes[off+dims+d], lo, hi))
			off += 2 * dims
		}
	}
}

// quantiseQuery projects the query window onto the node's grid with the
// conservative rounding pairing described above: qg[2d] is the query's lower
// bound rounded UP with qupper (compared against entry upper bounds, which
// qupper rounded up) and qg[2d+1] the upper bound rounded DOWN with qlower
// (compared against entry lower bounds). Query coordinates outside the node
// MBB clamp to the grid ends, which only widens the admitted set.
func quantiseQuery(qmbb []float64, dims int, qlo, qhi *[geom.MaxDims]float64, qg *[2 * geom.MaxDims]uint16) {
	for d := 0; d < dims; d++ {
		lo, hi := qmbb[d], qmbb[dims+d]
		qg[2*d] = qupper(qlo[d], lo, hi)
		qg[2*d+1] = qlower(qhi[d], lo, hi)
	}
}

// swarGE compares the four unsigned 16-bit lanes of x and y at once,
// returning a word whose lane-top bit is set exactly where x's lane >= y's.
// Forcing x's lane tops on and y's off before the subtraction confines each
// lane's borrow to itself; the lane-top of the difference then decides the
// low 15 bits, and the original lane tops decide the rest (classic SWAR
// unsigned compare).
func swarGE(x, y uint64) uint64 {
	t := (x | laneH) - (y &^ laneH)
	xh := x & laneH
	yh := y & laneH
	return (xh &^ yh) | (^(xh ^ yh) & t & laneH)
}

// quantScan fills mask with the survivor bitmask of the node's entries
// against the quantised query window: bit i of mask[i/64] is set iff the
// grid-domain test admits entry i. One pass over the packed planes, four
// entries per comparison: per word and dimension, two SWAR compares AND into
// a lane-top accumulator, and one multiply gathers the four verdict bits
// into the mask nibble. The admitted set is a superset of the exact
// intersection set (see the file comment); it never misses a true hit.
// Padding-lane bits beyond count are cleared before returning.
//
// The common dimensionalities are unrolled: the per-dimension sub-slices are
// hoisted out of the word loop (one bounds check each instead of index
// arithmetic plus a check per access), which is worth ~30% of the kernel at
// dims=2. All branches compute the identical function.
func quantScan(planes []uint64, count, dims int, qg *[2 * geom.MaxDims]uint16, mask []uint64) {
	w := planeWords(count)
	for i := range mask {
		mask[i] = 0
	}
	if w == 0 {
		return
	}
	switch dims {
	case 1:
		lo0, hi0 := planes[0:w:w], planes[w:2*w:2*w]
		ql0, qh0 := uint64(qg[0])*lane1, uint64(qg[1])*lane1
		for wi := 0; wi < w; wi++ {
			m := swarGE(qh0, lo0[wi]) & swarGE(hi0[wi], ql0)
			mask[wi>>4] |= (((m >> 15) * nibMul) >> 48 & 0xF) << ((wi & 15) << 2)
		}
	case 2:
		lo0, hi0 := planes[0:w:w], planes[w:2*w:2*w]
		lo1, hi1 := planes[2*w:3*w:3*w], planes[3*w:4*w:4*w]
		ql0, qh0 := uint64(qg[0])*lane1, uint64(qg[1])*lane1
		ql1, qh1 := uint64(qg[2])*lane1, uint64(qg[3])*lane1
		for wi := 0; wi < w; wi++ {
			m := swarGE(qh0, lo0[wi]) & swarGE(hi0[wi], ql0)
			m &= swarGE(qh1, lo1[wi]) & swarGE(hi1[wi], ql1)
			mask[wi>>4] |= (((m >> 15) * nibMul) >> 48 & 0xF) << ((wi & 15) << 2)
		}
	case 3:
		lo0, hi0 := planes[0:w:w], planes[w:2*w:2*w]
		lo1, hi1 := planes[2*w:3*w:3*w], planes[3*w:4*w:4*w]
		lo2, hi2 := planes[4*w:5*w:5*w], planes[5*w:6*w:6*w]
		ql0, qh0 := uint64(qg[0])*lane1, uint64(qg[1])*lane1
		ql1, qh1 := uint64(qg[2])*lane1, uint64(qg[3])*lane1
		ql2, qh2 := uint64(qg[4])*lane1, uint64(qg[5])*lane1
		for wi := 0; wi < w; wi++ {
			m := swarGE(qh0, lo0[wi]) & swarGE(hi0[wi], ql0)
			m &= swarGE(qh1, lo1[wi]) & swarGE(hi1[wi], ql1)
			m &= swarGE(qh2, lo2[wi]) & swarGE(hi2[wi], ql2)
			mask[wi>>4] |= (((m >> 15) * nibMul) >> 48 & 0xF) << ((wi & 15) << 2)
		}
	default:
		var cql, cqh [geom.MaxDims]uint64
		for d := 0; d < dims; d++ {
			cql[d] = uint64(qg[2*d]) * lane1
			cqh[d] = uint64(qg[2*d+1]) * lane1
		}
		for wi := 0; wi < w; wi++ {
			m := ^uint64(0)
			for d := 0; d < dims; d++ {
				lo := planes[2*d*w+wi]
				hi := planes[(2*d+1)*w+wi]
				m &= swarGE(cqh[d], lo) & swarGE(hi, cql[d])
			}
			mask[wi>>4] |= (((m >> 15) * nibMul) >> 48 & 0xF) << ((wi & 15) << 2)
		}
	}
	if r := count & 63; r != 0 {
		mask[len(mask)-1] &= 1<<uint(r) - 1
	}
}
