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
	// keep, when set, keeps every other reply, as a caller that stores
	// replies does: it withholds them from the load driver's release and
	// holds on to them with the bytes they must still read.
	keep bool
	kept []keptReply
}

type keptReply struct{ got, want []byte }

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
		if c.keep && c.checked%2 == 0 {
			c.kept = append(c.kept, keptReply{got: r.Payload, want: want})
			r.Recycle = nil
		}
		c.checked++
		done(r)
	})
}

// driveImages runs 56 concurrent image requests at a time through a
// λ-NIC backend under trace.ClosedLoop, with recycled payloads, checking
// every reply as it arrives.
func driveImages(t *testing.T, keep bool) (*checkedNIC, int) {
	t.Helper()
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
	nic := &checkedNIC{t: t, b: b, w: img, keep: keep}
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
	return nic, requests
}

// TestLambdaNICReadsPayloadInPlace: a multi-packet commit moves no
// bytes, so the lambda reads each request's payload where the caller
// keeps it until the request completes. With 56 recycled image requests
// in flight every reply must still be the grayscale of its own request.
// Under -race trace.ClosedLoop poisons each payload as it recycles it, so a
// lambda that read one after its request completed would reply with
// garbage here.
func TestLambdaNICReadsPayloadInPlace(t *testing.T) {
	nic, requests := driveImages(t, false)
	if c := nic.b.RDMA().Counters(); c.Writes != uint64(requests) || c.BytesWritten != uint64(requests*len(nic.w.MakeRequest(0))) {
		t.Errorf("RDMA counters %+v: want one commit of the whole payload per request", c)
	}
}

// TestLambdaNICKeptReplyStaysPut: a reply is the caller's until it
// calls Result.Recycle. Every other reply is kept and the rest recycled,
// so later requests build their replies in recycled buffers while the
// kept ones are held; after the run each kept reply must still be the
// grayscale of its own request. Under -race the backend poisons every
// reply it takes back, so one recycled before its caller read it fails
// the check on arrival.
func TestLambdaNICKeptReplyStaysPut(t *testing.T) {
	nic, requests := driveImages(t, true)
	if len(nic.kept) != requests/2 {
		t.Fatalf("kept %d replies, want %d", len(nic.kept), requests/2)
	}
	for i, k := range nic.kept {
		if !bytes.Equal(k.got, k.want) {
			t.Fatalf("kept reply %d was overwritten after it was delivered", 2*i)
		}
	}
}

// TestLambdaNICReplyReuse: a warm image request whose reply is recycled
// allocates less than one whose reply is kept — the reply is built in
// the buffer the previous request gave back.
func TestLambdaNICReplyReuse(t *testing.T) {
	img := workloads.ImageTransformer(64, 64)
	s := sim.New(1)
	b, err := backend.NewLambdaNIC(s, cluster.Default(), nicsim.DispatchUniform)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Deploy([]*workloads.Workload{img}); err != nil {
		t.Fatal(err)
	}
	payload := img.MakeRequest(1)
	want, err := img.Handle(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(recycle bool) float64 {
		return testing.AllocsPerRun(50, func() {
			var res backend.Result
			b.Invoke(img.ID, payload, func(r backend.Result) { res = r })
			if err := s.RunUntilIdle(); err != nil {
				t.Fatal(err)
			}
			if res.Err != nil || !bytes.Equal(res.Payload, want) {
				t.Fatalf("reply %d bytes, err %v: want the grayscale", len(res.Payload), res.Err)
			}
			if recycle {
				res.Recycle(res.Payload)
			}
		})
	}
	kept, recycled := allocs(false), allocs(true)
	t.Logf("allocs per warm image request: %.1f keeping replies, %.1f recycling them", kept, recycled)
	if recycled > kept-1 {
		t.Errorf("recycling replies saves %.1f allocs per request, want at least 1", kept-recycled)
	}
}
