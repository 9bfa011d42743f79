package workloads

import (
	"bytes"
	"testing"
	"testing/quick"

	"lambdanic/internal/matchlambda"
	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
)

// compileKVStore links the KV-store lambda alone.
func compileKVStore(t *testing.T) *mcc.Executable {
	t.Helper()
	w := KVStoreLambda()
	p, err := matchlambda.Compose([]*matchlambda.LambdaSpec{w.Spec}, matchlambda.ComposeOptions{
		Headers: []matchlambda.HeaderSpec{KVStoreHeader()},
		Shared:  []*mcc.Function{BuildRuntimeLib(0)},
		SharedObjects: []*mcc.Object{
			{Name: "lib_state", Size: 64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := mcc.Optimize(p, mcc.AllPasses())
	if err != nil {
		t.Fatal(err)
	}
	exe, err := mcc.Link(opt)
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func kvsExec(t *testing.T, exe *mcc.Executable, payload []byte) []byte {
	t.Helper()
	resp, err := exe.Execute(&nicsim.Request{LambdaID: KVStoreLambdaID, Payload: payload, Packets: 1})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return resp.Payload
}

func TestKVStoreLambdaPutGet(t *testing.T) {
	exe := compileKVStore(t)
	value := []byte("hello-from-nic!!") // exactly 16 bytes
	if got := kvsExec(t, exe, KVStoreOp(true, 12345, value)); len(got) != 1 || got[0] != KVSStored {
		t.Fatalf("put = %q", got)
	}
	got := kvsExec(t, exe, KVStoreOp(false, 12345, nil))
	if !bytes.Equal(got, value) {
		t.Errorf("get = %q, want %q", got, value)
	}
	// Missing key.
	if got := kvsExec(t, exe, KVStoreOp(false, 999, nil)); len(got) != 1 || got[0] != KVSMiss {
		t.Errorf("missing get = %q, want miss", got)
	}
	// Overwrite.
	value2 := []byte("updated-value--!")
	if got := kvsExec(t, exe, KVStoreOp(true, 12345, value2)); got[0] != KVSStored {
		t.Fatalf("overwrite = %q", got)
	}
	if got := kvsExec(t, exe, KVStoreOp(false, 12345, nil)); !bytes.Equal(got, value2) {
		t.Errorf("get after overwrite = %q", got)
	}
}

func TestKVStoreLambdaShortValuePadded(t *testing.T) {
	exe := compileKVStore(t)
	if got := kvsExec(t, exe, KVStoreOp(true, 7, []byte("ab"))); got[0] != KVSStored {
		t.Fatal("put failed")
	}
	got := kvsExec(t, exe, KVStoreOp(false, 7, nil))
	if len(got) != kvsValueSize || got[0] != 'a' || got[1] != 'b' || got[2] != 0 {
		t.Errorf("padded value = %q", got)
	}
}

func TestKVStoreLambdaCollisionChain(t *testing.T) {
	// Fill one probe chain: keys that all hash to the same bucket.
	exe := compileKVStore(t)
	base := kvsHash(1) % kvsBuckets
	var colliders []uint64
	for k := uint64(1); len(colliders) < kvsProbes+1; k++ {
		if kvsHash(k)%kvsBuckets == base {
			colliders = append(colliders, k)
		}
	}
	// The first kvsProbes collide-keys fit; the next PUT reports full.
	for i, k := range colliders[:kvsProbes] {
		if got := kvsExec(t, exe, KVStoreOp(true, k, []byte{byte(i)})); got[0] != KVSStored {
			t.Fatalf("collider %d not stored: %q", i, got)
		}
	}
	if got := kvsExec(t, exe, KVStoreOp(true, colliders[kvsProbes], []byte("x"))); got[0] != KVSFull {
		t.Errorf("overfull put = %q, want full", got)
	}
	// All stored colliders remain retrievable.
	for i, k := range colliders[:kvsProbes] {
		got := kvsExec(t, exe, KVStoreOp(false, k, nil))
		if len(got) != kvsValueSize || got[0] != byte(i) {
			t.Errorf("collider %d readback = %q", i, got)
		}
	}
}

func TestKVStoreLambdaMatchesNativeModelProperty(t *testing.T) {
	// Property: arbitrary op sequences produce byte-identical responses
	// on the NIC table and the native mirror.
	exe := compileKVStore(t)
	w := KVStoreLambda()
	f := func(ops []uint16) bool {
		exe.Reset()
		fresh := KVStoreLambda() // fresh native model
		for i, op := range ops {
			if i >= 24 {
				break
			}
			key := uint64(op % 97)
			put := op%3 != 0
			var payload []byte
			if put {
				payload = KVStoreOp(true, key, []byte{byte(op), byte(op >> 8)})
			} else {
				payload = KVStoreOp(false, key, nil)
			}
			resp, err := exe.Execute(&nicsim.Request{LambdaID: KVStoreLambdaID, Payload: payload, Packets: 1})
			if err != nil {
				return false
			}
			want, err := fresh.Handle(payload, nil)
			if err != nil {
				return false
			}
			if !bytes.Equal(resp.Payload, want) {
				return false
			}
		}
		return true
	}
	_ = w
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKVStoreLambdaShortRequest(t *testing.T) {
	w := KVStoreLambda()
	if _, err := w.Handle([]byte{1, 2}, nil); err == nil {
		t.Error("native handler accepted short request")
	}
	if _, err := w.Handle(KVStoreOp(true, 1, nil)[:9], nil); err == nil {
		t.Error("native handler accepted put without value")
	}
}

func TestKVStoreLambdaFitsInstructionStore(t *testing.T) {
	exe := compileKVStore(t)
	if got := exe.StaticInstructions(); got > 16*1024 {
		t.Errorf("kv store image = %d instructions, exceeds store", got)
	}
	// The table lives in NIC memory.
	mem := exe.MemoryBytes()
	total := 0
	for _, b := range mem {
		total += b
	}
	if total < kvsTableSize {
		t.Errorf("NIC memory = %d, want >= table size %d", total, kvsTableSize)
	}
}
