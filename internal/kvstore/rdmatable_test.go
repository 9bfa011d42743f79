package kvstore

import (
	"bytes"
	"fmt"
	"testing"
)

func TestTableSetGetDelete(t *testing.T) {
	tb := NewTable(64)
	if !tb.Set("user:0001", []byte("alpha")) {
		t.Fatal("Set failed")
	}
	if v, ok := tb.Get("user:0001"); !ok || string(v) != "alpha" {
		t.Fatalf("Get = %q/%v", v, ok)
	}
	if !tb.Set("user:0001", []byte("beta")) {
		t.Fatal("overwrite failed")
	}
	if v, _ := tb.Get("user:0001"); string(v) != "beta" {
		t.Fatalf("after overwrite Get = %q", v)
	}
	tb.Delete("user:0001")
	if _, ok := tb.Get("user:0001"); ok {
		t.Fatal("Get after Delete hit")
	}
}

// TestDefaultTableMirrorsKeySpace loads the workloads' 1 000 keys, shaped
// as the KV clients name them, into a default-size table: every one must
// be mirrored and found by a one-sided reader scanning its probe window.
func TestDefaultTableMirrorsKeySpace(t *testing.T) {
	tb := NewTable(DefaultSlots)
	for k := 0; k < 1000; k++ {
		if key := fmt.Sprintf("user:%04d", k); !tb.Set(key, []byte(fmt.Sprintf("value-%d", k))) {
			t.Fatalf("%s not mirrored: its probe window is full", key)
		}
	}
	for k := 0; k < 1000; k++ {
		key := fmt.Sprintf("user:%04d", k)
		aOff, aLen, bOff, bLen := tb.ProbeWindow(key)
		window := append(bytes.Clone(tb.Bytes()[aOff:aOff+aLen]), tb.Bytes()[bOff:bOff+bLen]...)
		if v, ok := Lookup(window, key); !ok || string(v) != fmt.Sprintf("value-%d", k) {
			t.Fatalf("Lookup(%s) over its probe window = %q, %v", key, v, ok)
		}
	}
}

func TestTableRejectsOversized(t *testing.T) {
	tb := NewTable(64)
	if tb.Set(string(bytes.Repeat([]byte{'k'}, slotKeyCap+1)), []byte("v")) {
		t.Error("oversized key accepted")
	}
	if tb.Set("k", bytes.Repeat([]byte{'v'}, slotValCap+1)) {
		t.Error("oversized value accepted")
	}
	if !tb.Set("k", bytes.Repeat([]byte{'v'}, slotValCap)) {
		t.Error("max-size value rejected")
	}
}

func TestTableProbeWindowLookup(t *testing.T) {
	// Every key stored in the table must be findable by the one-sided
	// protocol: fetch ProbeWindow bytes, scan with Lookup.
	tb := NewTable(1024)
	stored := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user:%04d", i)
		if tb.Set(key, []byte(fmt.Sprintf("value-%d", i))) {
			stored++
		}
	}
	if stored < 900 {
		t.Fatalf("only %d/1000 keys fit; probe windows too contended", stored)
	}
	buf := tb.Bytes()
	found := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user:%04d", i)
		aOff, aLen, bOff, bLen := tb.ProbeWindow(key)
		window := append(append([]byte(nil), buf[aOff:aOff+aLen]...), buf[bOff:bOff+bLen]...)
		if v, ok := Lookup(window, key); ok {
			if want := fmt.Sprintf("value-%d", i); string(v) != want {
				t.Fatalf("Lookup(%q) = %q, want %q", key, v, want)
			}
			found++
		}
	}
	if found != stored {
		t.Errorf("one-sided lookup found %d of %d stored keys", found, stored)
	}
	// A key that was never stored must miss.
	if _, ok := Lookup(buf, "user:9999x"); ok {
		t.Error("Lookup hit an absent key")
	}
}

func TestTableTombstoneKeepsChainReachable(t *testing.T) {
	// Deleting an entry mid-chain must not cut off later entries that
	// probed past it.
	tb := NewTable(4) // tiny table forces collisions
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		tb.Set(k, []byte("v-"+k))
	}
	tb.Delete(keys[0])
	for _, k := range keys[1:] {
		if v, ok := tb.Get(k); ok && string(v) != "v-"+k {
			t.Errorf("Get(%q) = %q after delete of %q", k, v, keys[0])
		}
	}
	// The tombstoned slot is reusable.
	if !tb.Set("e", []byte("v-e")) {
		t.Skip("probe window full; reuse not exercised with this geometry")
	}
	if v, ok := tb.Get("e"); !ok || string(v) != "v-e" {
		t.Errorf("Get(e) = %q/%v after tombstone reuse", v, ok)
	}
}

func TestStoreMirrorsIntoTable(t *testing.T) {
	s := NewStore()
	tb := NewTable(64)
	s.SetMirror(tb)
	if err := s.Set("user:0007", 0, []byte("seven")); err != nil {
		t.Fatal(err)
	}
	if v, ok := tb.Get("user:0007"); !ok || string(v) != "seven" {
		t.Fatalf("mirror Get = %q/%v", v, ok)
	}
	if err := s.Delete("user:0007"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Get("user:0007"); ok {
		t.Error("mirror still holds deleted key")
	}
}
