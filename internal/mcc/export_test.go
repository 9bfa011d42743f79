package mcc

// ObjectBytes returns the named object's memory.
func (e *Executable) ObjectBytes(name string) []byte { return e.slot(name).mem }

// SkipsStoresTo reports whether a replay may skip stores to the named
// object: no read anywhere in the image can observe them.
func (e *Executable) SkipsStoresTo(name string) bool {
	return e.uses().uncovered[e.slotIndex[name]] == ""
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
