package mcc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"lambdanic/internal/experiments"
	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
	"lambdanic/internal/workloads"
)

// rackSets are the lambda sets the four rack experiments deploy, at the
// sizes the benchmark runs them (boundary's IDs as in boundary.go).
func rackSets() map[string][]*workloads.Workload {
	tc, sc, bc := experiments.DefaultTenants(), experiments.QuickSkew(), experiments.DefaultBoundary()
	return map[string][]*workloads.Workload{
		"tenants": {workloads.WebServer(), workloads.BatchSweeperVariant("batch_sweep", workloads.BatchSweepID, tc.BatchSweeps)},
		"skew":    {workloads.BatchSweeperVariant("skew_svc", workloads.BatchSweepID, sc.ServiceSweeps)},
		"boundary": {
			workloads.WebServerVariant("bnd_web", 21),
			workloads.BatchSweeperVariant("bnd_mid", 22, bc.MidSweeps),
			workloads.BatchSweeperVariant("bnd_heavy", 23, bc.HeavySweeps),
		},
		"chaos": {workloads.WebServer()},
		// The section 6 set with a small image transformer: requestFor
		// sends it images of mixed sizes.
		"paper": {workloads.WebServer(), workloads.KVGetClient(), workloads.KVSetClient(), workloads.ImageTransformer(16, 16)},
	}
}

// imageSizes are the image requests the rack test mixes. A 1×1 or 3×5
// image emits fewer bytes than padChecksum reads back from img_out, so
// those loads read bytes the run did not write.
var imageSizes = [][2]int{{1, 1}, {3, 5}, {16, 16}, {7, 2}}

// requestFor draws a request for w: a mixed-size image for the image
// transformer, w's own i-th request otherwise.
func requestFor(w *workloads.Workload, rng *rand.Rand) []byte {
	if w.ID == workloads.ImageTransformerID {
		s := imageSizes[rng.Intn(len(imageSizes))]
		return workloads.ImageRequest(s[0], s[1], byte(rng.Intn(256)))
	}
	return w.MakeRequest(rng.Intn(1 << 16))
}

// TestReplayMatchesInterpreterOnRackSets streams each rack experiment's
// requests through one firmware linked twice — compiled, which replays,
// and EngineInterp, which never does — and wants every request's stats,
// reply and error identical, and object memory identical at the end
// except in objects whose stores a replay may skip. The stream starts
// cold, Resets both images half-way, mixes in payloads of 0-3 bytes,
// images of mixed sizes and multi-packet requests, and runs at two
// seeds. Every set must replay some key.
func TestReplayMatchesInterpreterOnRackSets(t *testing.T) {
	for name, ws := range rackSets() {
		prog, _, err := workloads.OptimizedProgram(ws, workloads.NaiveProgramTarget)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				compiled, err := mcc.Link(prog, mcc.LinkOptions{})
				if err != nil {
					t.Fatal(err)
				}
				interp, err := mcc.Link(prog, mcc.LinkOptions{Engine: mcc.EngineInterp})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				const n = 240
				for i := 0; i < n; i++ {
					if i == n/2 {
						compiled.Reset()
						interp.Reset()
					}
					w := ws[rng.Intn(len(ws))]
					payload := requestFor(w, rng)
					switch rng.Intn(8) {
					case 0:
						payload = payload[:rng.Intn(min(len(payload), 3)+1)]
					case 1:
						payload = append(payload, byte(rng.Intn(256)))
					}
					req := &nicsim.Request{LambdaID: w.ID, Payload: payload, Packets: 1 + rng.Intn(2)}
					got, gerr := compiled.Execute(req)
					want, werr := interp.Execute(req)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) || got.Stats != want.Stats || !bytes.Equal(got.Payload, want.Payload) {
						t.Fatalf("request %d (%s, %x, %d packets): compiled %+v %x %v, interpreter %+v %x %v",
							i, w.Name, payload, req.Packets, got.Stats, got.Payload, gerr, want.Stats, want.Payload, werr)
					}
				}
				for _, o := range prog.Objects {
					if !compiled.SkipsStoresTo(o.Name) && !bytes.Equal(compiled.ObjectBytes(o.Name), interp.ObjectBytes(o.Name)) {
						t.Errorf("object %s differs at the end", o.Name)
					}
				}
				armed := 0
				for _, w := range ws {
					armed += compiled.ArmedKeys(w.ID)
				}
				if armed == 0 {
					t.Error("no key armed")
				}
			})
		}
	}
}
