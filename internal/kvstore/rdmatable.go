package kvstore

import (
	"encoding/binary"
	"sync"
)

// Table is a fixed-geometry open-addressing hash table laid out in one
// flat byte slice — the EMEM-resident form of the store that λ-NIC can
// expose as an RDMA region. A remote client that knows the geometry
// can serve a GET with a one-sided read of the key's probe window and
// a client-side scan (Lookup), never invoking a lambda; writes and
// misses fall back to the lambda path against the authoritative Store,
// which keeps the table coherent through the mirror hook (SetMirror).
//
// Slot layout (SlotSize bytes each):
//
//	[0]     used flag (0 = empty, 1 = occupied)
//	[1]     key length
//	[2:40]  key bytes (up to slotKeyCap)
//	[40:42] value length, big endian
//	[42:]   value bytes (up to slotValCap)
//
// Keys hash with FNV-1a; collisions probe linearly for up to
// ProbeLimit slots. Entries that don't fit (oversized key/value or a
// full probe window) are simply not mirrored — a bypass reader misses
// and falls back, trading fast-path coverage for bounded geometry.
type Table struct {
	mu    sync.RWMutex
	buf   []byte
	slots int
}

// Table geometry.
const (
	SlotSize   = 128
	slotKeyCap = 38
	slotValCap = SlotSize - 42
	// ProbeLimit bounds the linear-probe window — and therefore the
	// byte range a one-sided reader must fetch.
	ProbeLimit = 8
	// DefaultSlots is the default table capacity: at 4× the workloads'
	// 1 000 keys no key's ProbeLimit window fills.
	DefaultSlots = 4096
)

// NewTable builds a table with at least the given number of slots
// (rounded up to a power of two; DefaultSlots if n <= 0).
func NewTable(n int) *Table {
	if n <= 0 {
		n = DefaultSlots
	}
	slots := 1
	for slots < n {
		slots <<= 1
	}
	return &Table{buf: make([]byte, slots*SlotSize), slots: slots}
}

// Bytes exposes the table's backing store — the buffer to register as
// an RDMA region. One-sided readers observe whatever bytes are present
// at read-completion time, exactly like hardware.
func (t *Table) Bytes() []byte { return t.buf }

// hashKey is FNV-1a over the key bytes.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// ProbeWindow returns the byte ranges a one-sided reader must fetch to
// look up key: the probe window starting at the key's home slot, split
// into two ranges when it wraps past the end of the table. bLen is 0
// when no wrap occurs.
func (t *Table) ProbeWindow(key string) (aOff, aLen, bOff, bLen int) {
	n := ProbeLimit
	if n > t.slots {
		n = t.slots
	}
	home := int(hashKey(key) % uint64(t.slots))
	aOff = home * SlotSize
	if home+n <= t.slots {
		return aOff, n * SlotSize, 0, 0
	}
	first := t.slots - home
	return aOff, first * SlotSize, 0, (n - first) * SlotSize
}

// Lookup scans a fetched probe window (one or more SlotSize-aligned
// slots, e.g. the bytes returned by an RDMA read of ProbeWindow's
// ranges) for key. The returned value aliases window.
func Lookup(window []byte, key string) ([]byte, bool) {
	if len(key) > slotKeyCap {
		return nil, false
	}
	for off := 0; off+SlotSize <= len(window); off += SlotSize {
		slot := window[off : off+SlotSize]
		if slot[0] == 0 {
			return nil, false // empty slot terminates the probe chain
		}
		klen := int(slot[1])
		if klen != len(key) || string(slot[2:2+klen]) != key {
			continue
		}
		vlen := int(binary.BigEndian.Uint16(slot[40:42]))
		if vlen > slotValCap {
			return nil, false
		}
		return slot[42 : 42+vlen], true
	}
	return nil, false
}

// Get probes the local table for key — the server-side (shared-memory)
// form of the bypass lookup. The returned value is a copy.
func (t *Table) Get(key string) ([]byte, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.find(key)
	if !ok {
		return nil, false
	}
	slot := t.buf[idx*SlotSize : (idx+1)*SlotSize]
	vlen := int(binary.BigEndian.Uint16(slot[40:42]))
	return append([]byte(nil), slot[42:42+vlen]...), true
}

// Set mirrors key=value into the table, overwriting any prior entry.
// It reports false when the entry cannot be represented (oversized key
// or value, or a full probe window) — the entry is then served only by
// the authoritative store.
func (t *Table) Set(key string, value []byte) bool {
	if len(key) == 0 || len(key) > slotKeyCap || len(value) > slotValCap {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.find(key)
	if !ok {
		idx, ok = t.findFree(key)
		if !ok {
			return false
		}
	}
	slot := t.buf[idx*SlotSize : (idx+1)*SlotSize]
	slot[0] = 1
	slot[1] = byte(len(key))
	copy(slot[2:2+slotKeyCap], key)
	binary.BigEndian.PutUint16(slot[40:42], uint16(len(value)))
	copy(slot[42:], value)
	for i := 42 + len(value); i < SlotSize; i++ {
		slot[i] = 0
	}
	return true
}

// Delete removes key's mirror entry. The slot is tombstoned as used
// with a zero key length so later probes in its chain stay reachable.
func (t *Table) Delete(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.find(key)
	if !ok {
		return
	}
	slot := t.buf[idx*SlotSize : (idx+1)*SlotSize]
	slot[1] = 0 // tombstone: used, matches no key
	binary.BigEndian.PutUint16(slot[40:42], 0)
}

// find locates key's slot index; t.mu must be held.
func (t *Table) find(key string) (int, bool) {
	home := int(hashKey(key) % uint64(t.slots))
	n := ProbeLimit
	if n > t.slots {
		n = t.slots
	}
	for i := 0; i < n; i++ {
		idx := (home + i) % t.slots
		slot := t.buf[idx*SlotSize : (idx+1)*SlotSize]
		if slot[0] == 0 {
			return 0, false
		}
		if klen := int(slot[1]); klen == len(key) && string(slot[2:2+klen]) == key {
			return idx, true
		}
	}
	return 0, false
}

// findFree locates the first free (empty or tombstoned) slot in key's
// probe window; t.mu must be held.
func (t *Table) findFree(key string) (int, bool) {
	home := int(hashKey(key) % uint64(t.slots))
	n := ProbeLimit
	if n > t.slots {
		n = t.slots
	}
	for i := 0; i < n; i++ {
		idx := (home + i) % t.slots
		slot := t.buf[idx*SlotSize : (idx+1)*SlotSize]
		if slot[0] == 0 || slot[1] == 0 {
			return idx, true
		}
	}
	return 0, false
}
