package ids

// U64Map is a compact open-addressing hash table from uint64 keys to
// uint32 values, built for the store's dedup indexes (tweet ID → row,
// post ID → seen). A Go map[uint64]uint32 costs ~50+ bytes per entry once
// bucket headers, overflow pointers, and load slack are counted; this
// table keeps two flat power-of-two slices (12 bytes per slot) filled to
// at most 90%, i.e. ~13 bytes per entry just before a growth and ~7 right
// after — small enough that a 10M+-tweet dedup index stays in the
// hundreds of megabytes of headroom the paper-scale runs budget.
//
// The probe sequence is robin-hood linear probing: an inserted entry
// displaces any resident entry that is closer to its ideal slot than the
// incoming one is to its own, which caps probe-length variance and keeps
// lookups short even at 90% load. The table never deletes — the study
// only ever accumulates seen IDs — which is what makes the scheme this
// simple (no tombstones).
//
// The zero key is stored out of band (hasZero/zeroVal): slot emptiness is
// encoded as key==0, so key 0 cannot live in the slots themselves.
//
// U64Map is not safe for concurrent use; the store guards it with the
// owning family's lock, exactly as it guarded the Go map it replaces.
type U64Map struct {
	keys []uint64
	vals []uint32
	n    int // entries resident in keys/vals (excludes the zero key)

	hasZero bool
	zeroVal uint32
}

// u64MapMinSlots keeps tiny tables from growing on every insert.
const u64MapMinSlots = 16

// NewU64Map returns a table pre-sized for hint entries (hint may be 0).
func NewU64Map(hint int) *U64Map {
	slots := u64MapMinSlots
	// Size so hint entries fit under the 90% ceiling.
	for slots*9 < hint*10 {
		slots *= 2
	}
	return &U64Map{
		keys: make([]uint64, slots),
		vals: make([]uint32, slots),
	}
}

// mix64 is the SplitMix64 finalizer: snowflake IDs share high bits and
// stride in low bits, so slot selection needs every input bit to disturb
// every output bit.
func mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Len reports the number of stored entries.
func (m *U64Map) Len() int {
	if m.hasZero {
		return m.n + 1
	}
	return m.n
}

// Get returns the value stored under key.
func (m *U64Map) Get(key uint64) (uint32, bool) {
	if key == 0 {
		return m.zeroVal, m.hasZero
	}
	mask := uint64(len(m.keys) - 1)
	i := mix64(key) & mask
	var dist uint64
	for {
		k := m.keys[i]
		if k == key {
			return m.vals[i], true
		}
		// Empty slot, or a resident closer to home than we are: under
		// robin-hood ordering our key cannot live further down the chain.
		if k == 0 || probeDist(k, i, mask) < dist {
			return 0, false
		}
		i = (i + 1) & mask
		dist++
	}
}

// Put stores val under key, overwriting any previous value.
func (m *U64Map) Put(key uint64, val uint32) {
	if key == 0 {
		m.hasZero = true
		m.zeroVal = val
		return
	}
	// Grow at 90% occupancy, before the insert that would cross it.
	if (m.n+1)*10 > len(m.keys)*9 {
		m.grow()
	}
	m.insert(key, val)
}

// probeDist is how far slot i is from key k's ideal slot.
func probeDist(k uint64, i, mask uint64) uint64 {
	return (i - (mix64(k) & mask)) & mask
}

// insert places (key, val) with robin-hood displacement. Caller has
// ensured a free slot exists and key != 0.
func (m *U64Map) insert(key uint64, val uint32) {
	mask := uint64(len(m.keys) - 1)
	i := mix64(key) & mask
	var dist uint64
	for {
		k := m.keys[i]
		if k == 0 {
			m.keys[i] = key
			m.vals[i] = val
			m.n++
			return
		}
		if k == key {
			m.vals[i] = val
			return
		}
		if d := probeDist(k, i, mask); d < dist {
			// The resident is richer (closer to home): it yields the slot
			// and the displaced entry continues probing from here.
			m.keys[i], key = key, m.keys[i]
			m.vals[i], val = val, m.vals[i]
			dist = d
		}
		i = (i + 1) & mask
		dist++
	}
}

// grow doubles the backing slots and reinserts every resident entry.
func (m *U64Map) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]uint64, len(oldKeys)*2)
	m.vals = make([]uint32, len(oldVals)*2)
	m.n = 0
	for i, k := range oldKeys {
		if k != 0 {
			m.insert(k, oldVals[i])
		}
	}
}

// HeapBytes reports the table's backing-array footprint.
func (m *U64Map) HeapBytes() int64 {
	return int64(cap(m.keys))*8 + int64(cap(m.vals))*4
}
