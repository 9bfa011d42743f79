// Real-workload benchmarks over the public API (external test package
// for the same import-cycle reason as allocs_test.go). These are the
// ns/op numbers the lambdabench experiment tracks; keeping them as Go
// benchmarks makes them profilable with -cpuprofile.
package mcc_test

import (
	"testing"

	"lambdanic/internal/nicsim"
	"lambdanic/internal/workloads"
)

func BenchmarkWorkload(b *testing.B) {
	ws := []*workloads.Workload{
		workloads.WebServer(),
		workloads.KVGetClient(),
		workloads.ImageTransformer(16, 16),
	}
	exe := executing(b, ws, workloads.NaiveProgramTarget)
	for _, w := range ws {
		payload := w.MakeRequest(7)
		req := &nicsim.Request{
			LambdaID: w.ID,
			Payload:  payload,
			Packets:  workloads.Packets(len(payload)),
		}
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < 3; i++ {
				if err := exe.ExecutePooled(req, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := exe.ExecutePooled(req, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
