package backend_test

import (
	"bytes"
	"testing"

	"lambdanic/internal/backend"
	"lambdanic/internal/cluster"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/sim"
	"lambdanic/internal/trace"
	"lambdanic/internal/workloads"
)

// checkedNIC invokes the λ-NIC backend and holds every reply to the
// workload's native handler, run on the payload as it was submitted.
type checkedNIC struct {
	t       *testing.T
	b       *backend.LambdaNIC
	w       *workloads.Workload
	checked int
}

func (c *checkedNIC) Invoke(id uint32, payload []byte, done func(backend.Result)) {
	want, err := c.w.Handle(payload, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	c.b.Invoke(id, payload, func(r backend.Result) {
		if r.Err != nil {
			c.t.Errorf("request %d: %v", c.checked, r.Err)
		} else if !bytes.Equal(r.Payload, want) {
			c.t.Errorf("request %d: reply is not the grayscale of its own request", c.checked)
		}
		c.checked++
		done(r)
	})
}

// TestLambdaNICReadsPayloadInPlace: a multi-packet commit moves no
// bytes, so the lambda reads each request's payload where the caller
// keeps it until the request completes. With 56 recycled image requests
// in flight every reply must still be the grayscale of its own request.
// Under -race trace.ClosedLoop poisons each payload as it recycles it, so a
// lambda that read one after its request completed would reply with
// garbage here.
func TestLambdaNICReadsPayloadInPlace(t *testing.T) {
	const concurrency, requests = 56, 8 * 56
	img := workloads.ImageTransformer(64, 64) // 16 KiB: 12 packets, the RDMA path
	s := sim.New(1)
	b, err := backend.NewLambdaNIC(s, cluster.Default(), nicsim.DispatchUniform)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Deploy([]*workloads.Workload{img}); err != nil {
		t.Fatal(err)
	}
	nic := &checkedNIC{t: t, b: b, w: img}
	res, err := trace.ClosedLoop{
		Concurrency: concurrency,
		Requests:    requests,
		Gen:         trace.Refilled(img.ID, img.FillRequest),
	}.Run(s, nic)
	if err != nil {
		t.Fatal(err)
	}
	if nic.checked != requests || res.Errors != 0 {
		t.Fatalf("checked %d replies with %d errors, want %d and 0", nic.checked, res.Errors, requests)
	}
	if c := b.RDMA().Counters(); c.Writes != requests || c.BytesWritten != requests*uint64(len(img.MakeRequest(0))) {
		t.Errorf("RDMA counters %+v: want one commit of the whole payload per request", c)
	}
}
