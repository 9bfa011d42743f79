package workloads

import (
	"encoding/binary"
	"fmt"

	"lambdanic/internal/cpusim"
	"lambdanic/internal/matchlambda"
	"lambdanic/internal/mcc"
)

// Batch sweeper: the noisy-neighbor workload for multi-tenant
// experiments. Each request scans the lambda's EMEM-resident data
// block `sweeps` times (one 8-byte load per iteration), so a single
// request holds an NPU thread for hundreds of microseconds — the
// analytics-shaped traffic SuperNIC-style sharing must isolate from
// interactive lambdas. The request and response both fit in one wire
// packet. The sweep's path and cost do not depend on the request, so a
// compiled image replays its NIC cost and answers with the native
// function (mcc/replay.go).
const (
	batchDataSize      = 4096
	DefaultBatchSweeps = 400
)

// batchData builds the deterministic data block the sweeper scans.
func batchData() []byte {
	data := make([]byte, batchDataSize)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = byte(x)
	}
	return data
}

// BatchSweeper returns the batch-sweep workload with the default sweep
// count.
func BatchSweeper() *Workload {
	return BatchSweeperVariant("batch_sweep", BatchSweepID, DefaultBatchSweeps)
}

// BatchSweeperVariant returns a batch sweeper with its own name, ID,
// and per-request sweep count (service demand knob).
func BatchSweeperVariant(name string, id uint32, sweeps int) *Workload {
	if sweeps <= 0 {
		sweeps = DefaultBatchSweeps
	}
	data := batchData()
	native := func(payload []byte) ([]byte, error) {
		if len(payload) < 2 {
			return nil, fmt.Errorf("%s: short request", name)
		}
		seed := uint64(binary.BigEndian.Uint16(payload[:2]))
		acc := seed
		idx := 0
		for i := 0; i < sweeps; i++ {
			acc += binary.LittleEndian.Uint64(data[idx : idx+8])
			idx += 8
			if idx >= batchDataSize-7 {
				idx = 0
			}
		}
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], acc)
		return out[:], nil
	}
	return &Workload{
		Name: name,
		ID:   id,
		Spec: &matchlambda.LambdaSpec{
			Name:  name,
			ID:    id,
			Entry: buildBatchEntry(name, sweeps),
			Objects: []*mcc.Object{
				// Cold hint pins the block in EMEM: every sweep load pays
				// the external-memory latency, which is what makes one
				// request expensive.
				{Name: name + "_data", Size: batchDataSize, Init: data, Hint: mcc.HintCold},
				{Name: name + "_scratch", Size: 64},
			},
			Uses:   []string{"webreq"},
			Native: native,
		},
		Profile: cpusim.Profile{
			ID:                 id,
			NativeInstructions: uint64(sweeps) * 8,
			GILFraction:        1,
		},
		MakeRequest: func(i int) []byte {
			var p [2]byte
			binary.BigEndian.PutUint16(p[:], uint16(i))
			return p[:]
		},
		Handle: func(payload []byte, _ *Deps) ([]byte, error) {
			return native(payload)
		},
	}
}

// buildBatchEntry generates the sweep loop: one EMEM word load plus a
// handful of ALU instructions per iteration, mirroring the native
// handler exactly.
func buildBatchEntry(name string, sweeps int) *mcc.Function {
	b := mcc.NewBuilder(name)
	b.Call("lib_runtime")
	b.HdrGet(4, mcc.FieldArg0)          // r4 = acc, seeded from the request
	b.MovImm(2, int64(sweeps))          // r2 = loop counter
	b.MovImm(3, 0)                      // r3 = data index
	b.MovImm(7, 1)                      // r7 = 1 (decrement)
	b.MovImm(8, 8)                      // r8 = 8 (word stride)
	b.MovImm(9, int64(batchDataSize-7)) // r9 = wrap bound (idx+8 <= size)
	b.Label("sweep")
	b.LoadW(5, name+"_data", 3, 0) // the EMEM access
	b.Add(4, 4, 5)
	b.Add(3, 3, 8)
	b.Lt(6, 3, 9)
	b.Brnz(6, "inbound")
	b.MovImm(3, 0)
	b.Label("inbound")
	b.Sub(2, 2, 7)
	b.Brnz(2, "sweep")
	// Respond with the 8-byte accumulator.
	b.MovImm(6, 0)
	b.StoreW(name+"_scratch", 6, 0, 4)
	b.MovImm(5, 8)
	b.Emit(name+"_scratch", 6, 5)
	b.MovImm(1, mcc.StatusForward)
	b.Ret(1)
	return b.MustBuild()
}
