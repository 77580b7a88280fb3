package core

import (
	"math/bits"
	"unsafe"
)

// The FCM's context, key and value slabs are stored as fixed-size pages
// of pageLen entries, addressed by page and offset. Growth appends one
// page and never copies what is already stored, so a slab reserves at
// most one page it has not filled; an access costs one extra load, of
// the page from a directory small enough to stay cached.
const (
	pageShift = 12
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

// Entry widths the byte account multiplies by.
const (
	ctxBytes  = int64(unsafe.Sizeof(fcmCtxEnt{}))
	pairBytes = int64(unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(uint32(0)))
)

// fcmValSlab stores every context's (value, count) run in pages of
// pageLen pairs, 12 bytes a pair: values and counts are two parallel
// arrays, so a run's linear scan reads only values. A run is addressed
// by one int32 offset, its directory entry above pageShift and its start
// within the entry below. Runs are reserved at power-of-two lengths and
// never straddle pages: a run up to a page long is carved from the
// current page, and a longer one is a directory entry of its own, at
// start 0. A vacated run goes on the free list of its length class,
// and the free lists serve before the page does: the next run of that
// class, or, split, a shorter one. A run that does not fit in what is
// left of the current page free-lists that remainder in power-of-two
// pieces and starts the next page. A vacated run longer than a page is
// returned to the collector instead, since only a run of exactly its
// class could reuse it.
type fcmValSlab struct {
	vals [][]uint64 // directory: pages of pageLen values, and runs longer than a page
	cnts [][]uint32 // each entry's counts, parallel to vals
	cur  int        // the page runs are carved from; -1 before the first
	next int32      // first uncarved start in cur
	free [pageShift + 1][]int32
	// The byte account, in pairs: reserved is every pair allocated,
	// freed the pairs on the free lists, live the values the runs hold
	// and held the runs' reserved lengths.
	reserved, freed, live, held int64
}

func newValSlab() fcmValSlab { return fcmValSlab{cur: -1, next: pageLen} }

// values returns the n values of the run at off.
func (vs *fcmValSlab) values(off, n int32) []uint64 {
	i := off & pageMask
	return vs.vals[off>>pageShift][i : i+n]
}

// counts returns the n counts of the run at off.
func (vs *fcmValSlab) counts(off, n int32) []uint32 {
	i := off & pageMask
	return vs.cnts[off>>pageShift][i : i+n]
}

// alloc reserves a run of c pairs, a power of two (or 0, which needs no
// storage), and returns its offset. The smallest free run of class c or
// above serves first: a larger one is split, its first c pairs taken and
// the rest free-listed in halves.
func (vs *fcmValSlab) alloc(c int32) int32 {
	if c == 0 {
		return 0
	}
	for k := bits.TrailingZeros32(uint32(c)); k < len(vs.free); k++ {
		f := vs.free[k]
		if len(f) == 0 {
			continue
		}
		off := f[len(f)-1]
		vs.free[k] = f[:len(f)-1]
		vs.freed -= int64(1) << k
		for half := int32(1) << k >> 1; half >= c; half >>= 1 {
			vs.release(off+half, half)
		}
		return off
	}
	if c > pageLen {
		vs.vals = append(vs.vals, make([]uint64, c))
		vs.cnts = append(vs.cnts, make([]uint32, c))
		vs.reserved += int64(c)
		return int32(len(vs.vals)-1) << pageShift
	}
	if vs.next+c > pageLen {
		vs.nextPage()
	}
	off := int32(vs.cur)<<pageShift | vs.next
	vs.next += c
	return off
}

// release takes back the run of c pairs at off (c is the run's class, a
// power of two, or 0).
func (vs *fcmValSlab) release(off, c int32) {
	switch {
	case c == 0:
	case c > pageLen:
		d := off >> pageShift
		vs.vals[d], vs.cnts[d] = nil, nil
		vs.reserved -= int64(c)
	default:
		k := bits.TrailingZeros32(uint32(c))
		vs.free[k] = append(vs.free[k], off)
		vs.freed += int64(c)
	}
}

// nextPage free-lists what is left of the current page, largest piece
// first, and moves on to the next page: one Reset kept, or a new one.
func (vs *fcmValSlab) nextPage() {
	if vs.cur >= 0 {
		for vs.next < pageLen {
			piece := int32(1) << (bits.Len32(uint32(pageLen-vs.next)) - 1)
			vs.release(int32(vs.cur)<<pageShift|vs.next, piece)
			vs.next += piece
		}
	}
	// Pages past cur are unused: the bump point only moves forward, and
	// new pages are appended after every existing entry.
	for d := vs.cur + 1; d < len(vs.vals); d++ {
		if len(vs.vals[d]) == pageLen {
			vs.cur, vs.next = d, 0
			return
		}
	}
	vs.vals = append(vs.vals, make([]uint64, pageLen))
	vs.cnts = append(vs.cnts, make([]uint32, pageLen))
	vs.reserved += pageLen
	vs.cur, vs.next = len(vs.vals)-1, 0
}

// reset empties the slab in place: its pages stay for reuse, runs longer
// than a page go to the collector.
func (vs *fcmValSlab) reset() {
	n := 0
	for d := range vs.vals {
		if len(vs.vals[d]) == pageLen {
			vs.vals[n], vs.cnts[n] = vs.vals[d], vs.cnts[d]
			n++
		}
	}
	clear(vs.vals[n:])
	clear(vs.cnts[n:])
	free := vs.free
	for k := range free {
		free[k] = free[k][:0]
	}
	*vs = fcmValSlab{vals: vs.vals[:n], cnts: vs.cnts[:n], cur: -1, next: pageLen, free: free,
		reserved: int64(n) * pageLen}
}

// ctx returns context h's entry.
func (st *fcmOrderStore) ctx(h int32) *fcmCtxEnt {
	return &st.ctxs[h>>pageShift][h&pageMask]
}

// key returns the values of context h of order o.
func (st *fcmOrderStore) key(o int, h int32) []uint64 {
	i := int(h&pageMask) * o
	return st.keys[h>>pageShift][i : i+o]
}

// push appends a context owned by pcIdx with the given key (empty for
// order 0) and returns its handle. A page Reset kept is reused before a
// new one is made.
func (st *fcmOrderStore) push(pcIdx int32, key []uint64) int32 {
	h := st.n
	pg, i := int(h>>pageShift), int(h&pageMask)
	if pg == len(st.ctxs) {
		st.ctxs = append(st.ctxs, new([pageLen]fcmCtxEnt))
		if len(key) > 0 {
			st.keys = append(st.keys, make([]uint64, pageLen*len(key)))
		}
	}
	st.ctxs[pg][i] = fcmCtxEnt{pcIdx: pcIdx}
	if len(key) > 0 {
		copy(st.keys[pg][i*len(key):], key)
	}
	st.n++
	return h
}

// page returns the live entries of context page pg.
func (st *fcmOrderStore) page(pg int) []fcmCtxEnt {
	return st.ctxs[pg][:min(pageLen, int(st.n)-pg*pageLen)]
}

// pages returns how many context pages hold live entries.
func (st *fcmOrderStore) pages() int { return (int(st.n) + pageMask) >> pageShift }

// MemBytes is an exact byte account of predictor tables: Used counts the
// bytes live entries occupy, Reserved every byte the tables hold
// allocated, Used included.
type MemBytes struct {
	Used     int64 `json:"used"`
	Reserved int64 `json:"reserved"`
}

// Plus returns the sum of two accounts.
func (m MemBytes) Plus(o MemBytes) MemBytes {
	return MemBytes{Used: m.Used + o.Used, Reserved: m.Reserved + o.Reserved}
}

// sliceBytes accounts a slice: its length is used, its capacity reserved.
func sliceBytes[T any](s []T) MemBytes {
	var z T
	w := int64(unsafe.Sizeof(z))
	return MemBytes{Used: int64(len(s)) * w, Reserved: int64(cap(s)) * w}
}

// FCMAccount is an FCM's byte account, table by table. The page
// directories and free lists, a few kilobytes, are left out.
type FCMAccount struct {
	PCs      MemBytes // per-PC state: history, rolling signatures, counts
	Slots    MemBytes // the PC index and every order's context slot table
	Ctxs     MemBytes // context pages, ctxBytes per context
	Keys     MemBytes // key pages, 8 bytes per context value
	Vals     MemBytes // value pages and long runs, 12 bytes per (value, count) pair
	ValIndex MemBytes // the promoted contexts' value indexes
	// RunSlack and FreeRuns split what Vals reserves past its used
	// pairs: the space live runs reserve past their values (a run
	// reserves its length rounded up to a power of two) and the vacated
	// runs waiting on the free lists. The rest is the unfilled part of
	// the current value page and pages Reset kept.
	RunSlack, FreeRuns int64
}

// Total sums every table.
func (a FCMAccount) Total() MemBytes {
	return a.PCs.Plus(a.Slots).Plus(a.Ctxs).Plus(a.Keys).Plus(a.Vals).Plus(a.ValIndex)
}

// Account returns the FCM's exact byte account.
func (p *FCM) Account() FCMAccount {
	a := FCMAccount{
		PCs:   sliceBytes(p.pcs),
		Slots: p.idx.bytes(),
	}
	for o := range p.ords {
		st := &p.ords[o]
		n := int64(st.n)
		if o > 0 {
			a.Slots = a.Slots.Plus(MemBytes{Used: n * 8, Reserved: int64(len(st.slots)) * 8})
		}
		a.Ctxs = a.Ctxs.Plus(MemBytes{Used: n * ctxBytes, Reserved: int64(len(st.ctxs)) * pageLen * ctxBytes})
		kw := int64(o) * 8
		a.Keys = a.Keys.Plus(MemBytes{Used: n * kw, Reserved: int64(len(st.keys)) * pageLen * kw})
	}
	vs := &p.vals
	a.Vals = MemBytes{Used: vs.live * pairBytes, Reserved: vs.reserved * pairBytes}
	a.RunSlack = (vs.held - vs.live) * pairBytes
	a.FreeRuns = vs.freed * pairBytes
	a.ValIndex = sliceBytes(p.vidx)
	for i := range p.vidx {
		a.ValIndex = a.ValIndex.Plus(p.vidx[i].bytes())
	}
	return a
}

// StateBytes implements Sized.
func (p *FCM) StateBytes() MemBytes { return p.Account().Total() }
