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
	}
}

// TestReplayMatchesInterpreterOnRackSets streams each rack experiment's
// requests through one firmware linked twice — compiled, which replays,
// and EngineInterp, which never does — and wants every request's stats,
// reply and error identical, and object memory identical at the end
// except in objects whose stores a replay may skip. The stream starts
// cold, Resets both images half-way, mixes in payloads of 0-3 bytes
// and multi-packet requests, and runs at two seeds.
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
					payload := w.MakeRequest(rng.Intn(1 << 16))
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
				if (name == "chaos") != (armed == 0) {
					t.Errorf("%d keys armed; the sweep sets must replay and the web-only set must not", armed)
				}
			})
		}
	}
}
