package rpq

import "math/bits"

// key is a packed product node: (dense node index + 1) << sbits | state,
// where sbits covers the automaton's states (see Engine.pack). The +1 keeps
// every key nonzero, so zero marks an empty slot; node indices stay below
// 2^31 and states below 2^31, so bit 63 is free for the affected flag.
type key uint64

// affBit flags, in a slot's stored key, an entry that identAff declared
// affected in the repair under way. It lives in the key because the key is
// the one field a repair never rewrites; lookups ignore it.
const affBit key = 1 << 63

// slot is one pmark_e record, 16 bytes and pointer-free.
type slot struct {
	k key
	// dist is the shortest product distance from the source's seeds;
	// Unreachable while an affected entry has no finite potential. Seeds —
	// the entries (u, s) with s ∈ δ(s0, l(u)) — are exactly the entries at
	// distance 0.
	dist int32
	// nm is |mpre|: the number of product predecessors p that carry an
	// entry with dist(p)+1 == dist. At rest it is ≥ 1 for every non-seed.
	nm int32
}

func (s *slot) affected() bool { return s.k&affBit != 0 }

// table is the marking table of one source: an open-addressed, linearly
// probed hash table from key to (dist, nm). A *slot stays valid until the
// next put or del on the table.
type table struct {
	slots []slot // length is zero or a power of two
	shift uint8  // 64 - log2(len(slots))
	n     int
}

const minTableSlots = 8

func (t *table) home(k key) uint64 {
	return (uint64(k&^affBit) * 0x9E3779B97F4A7C15) >> t.shift
}

// get returns the entry of k, or nil.
func (t *table) get(k key) *slot {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.k&^affBit == k {
			return s
		}
		if s.k == 0 {
			return nil
		}
	}
}

// put returns the entry of k, creating a zeroed one (created = true) when
// k has none.
func (t *table) put(k key) (s *slot, created bool) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.k&^affBit == k {
			return s, false
		}
		if s.k == 0 {
			s.k = k
			t.n++
			return s, true
		}
	}
}

func (t *table) grow() {
	old := t.slots
	size := max(minTableSlots, 2*len(old))
	t.slots = make([]slot, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.k == 0 {
			continue
		}
		i := t.home(s.k)
		for t.slots[i].k != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// del removes the entry of k, which must exist, closing the probe chain by
// shifting later entries back (no tombstones).
func (t *table) del(k key) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(k)
	for t.slots[i].k&^affBit != k {
		i = (i + 1) & mask
	}
	for j := i; ; {
		j = (j + 1) & mask
		s := t.slots[j]
		if s.k == 0 {
			break
		}
		// s may move back to the hole at i unless its home lies cyclically
		// in (i, j].
		if h := t.home(s.k); (h-i-1)&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
}
