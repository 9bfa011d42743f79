package core

import (
	"encoding/binary"
	"testing"

	"lambdanic/internal/kvstore"
	"lambdanic/internal/transport"
	"lambdanic/internal/workloads"
)

// FuzzWorkerHandle feeds arbitrary payloads to a worker's handler under
// every workload it has installed, and under IDs it has not: no request
// may panic it (a worker has no recover). The KV lambdas reach a live
// memcached stand-in and the EMEM mirror. The seed corpus holds each
// workload's own request, truncations of it, and the forged 16-byte
// image request whose width and height of 2³¹ once wrapped w*h*4 to 0
// and crashed a worker.
func FuzzWorkerHandle(f *testing.F) {
	n := transport.NewMemNetwork(1)
	listen := func(name string) *transport.MemConn {
		conn, err := n.Listen(name)
		if err != nil {
			f.Fatal(err)
		}
		return conn
	}
	store, table := kvstore.NewStore(), kvstore.NewTable(kvstore.DefaultSlots)
	store.SetMirror(table)
	mc := kvstore.NewServer(store, listen("mc"))
	defer mc.Close()
	w := NewWorker(listen("w"), &workloads.Deps{
		KV:      kvstore.NewClient(listen("w:kv"), transport.MemAddr("mc")),
		KVTable: table,
	})
	defer w.Close()
	ws := []*workloads.Workload{
		workloads.WebServer(), workloads.KVGetClient(), workloads.KVSetClient(),
		workloads.ImageTransformer(16, 16), workloads.KVStoreLambda(),
		workloads.BatchSweeperVariant("batch_sweep", workloads.KVStoreLambdaID+1, workloads.DefaultBatchSweeps),
	}
	for _, wl := range ws {
		if err := w.Install(wl); err != nil {
			f.Fatal(err)
		}
		req := wl.MakeRequest(1)
		for _, cut := range []int{len(req), len(req) / 2, 1, 0} {
			f.Add(wl.ID, req[:cut])
		}
	}
	forged := make([]byte, 16)
	binary.BigEndian.PutUint32(forged[0:4], 1<<31)
	binary.BigEndian.PutUint32(forged[4:8], 1<<31)
	f.Add(workloads.ImageTransformerID, forged)
	f.Fuzz(func(t *testing.T, id uint32, payload []byte) {
		req := &transport.Message{Payload: payload}
		req.Header.WorkloadID = id
		w.handle(req)
	})
}
