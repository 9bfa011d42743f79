package mcc

import "lambdanic/internal/nicsim"

// slotIndex returns the index of the named object's slot, or -1.
func (e *Executable) slotIndex(name string) int {
	for i := range e.slots {
		if e.slots[i].name == name {
			return i
		}
	}
	return -1
}

// slot returns the named object's linked slot.
func (e *Executable) slot(name string) *objectSlot { return &e.slots[e.slotIndex(name)] }

// ObjectBytes returns the named object's memory.
func (e *Executable) ObjectBytes(name string) []byte { return e.slot(name).mem }

// SkipsStoresTo reports whether a replay may skip stores to the named
// object: no read anywhere in the image can observe them.
func (e *Executable) SkipsStoresTo(name string) bool {
	return e.uses().uncovered[e.slotIndex(name)] == ""
}

// ArmedKeys counts the keys of a lambda that replay.
func (e *Executable) ArmedKeys(id uint32) int {
	r := e.replayer(id)
	if r == nil {
		return 0
	}
	n := 0
	for _, rec := range r.recs {
		if rec.armed {
			n++
		}
	}
	return n
}

// ExecutesUnrecorded reports whether Serve would execute req without the
// recorder: req's lambda never replays, its key has a recording that
// did not arm, or the lambda records no more keys.
func (e *Executable) ExecutesUnrecorded(req *nicsim.Request) bool {
	r := e.replayer(req.LambdaID)
	if r == nil {
		return true
	}
	rec, full := r.lookup(req)
	return rec != nil && !rec.armed || full
}
