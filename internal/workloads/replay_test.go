package workloads

import (
	"strings"
	"testing"

	"lambdanic/internal/nicsim"
)

// TestReplayVerdicts holds every workload constructor's replay decision
// and its reason, as lnicctl compile prints them: only the sweeps, whose
// path ignores the request, replay — keyed on the runtime library's
// init flag.
func TestReplayVerdicts(t *testing.T) {
	sweep := "replayed: guard lib_state[0:8]"
	for _, tc := range []struct {
		w    *Workload
		want string
	}{
		{BatchSweeper(), sweep},
		{BatchSweeperVariant("skew_svc", BatchSweepID, 12), sweep},
		{BatchSweeperVariant("bnd_heavy", 23, 8000), sweep},
		{WebServer(), "executed: brnz web_server+4 depends on header arg0; " +
			"memcpy web_server+20 writes web_server_scratch, which emit web_server+23 reads before writing"},
		{WebServerVariant("bnd_web", 21), "executed: brnz bnd_web+4 depends on header arg0; " +
			"memcpy bnd_web+20 writes bnd_web_scratch, which emit bnd_web+23 reads before writing"},
		{KVGetClient(), "executed: brnz kv_get_client+34 depends on header arg1; " +
			"st kv_get_client+4 writes kvget_scratch, which emit kv_get_client+90 reads before writing"},
		{KVSetClient(), "executed: brnz kv_set_client+34 depends on header arg1; " +
			"st kv_set_client+4 writes kvset_scratch, which emit kv_set_client+90 reads before writing"},
		{ImageTransformer(DefaultImageWidth, DefaultImageHeight), "executed: brz image_transformer+10 depends on header arg1; " +
			"stw image_transformer+45 writes img_meta, which ld image_transformer+13 reads before writing"},
	} {
		got, err := ExplainReplay(tc.w)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.w.Name, got, tc.want)
		}
	}

	// The KV store parses its own header, so it links on its own.
	exe := compileKVStore(t)
	w := KVStoreLambda()
	for i, want := range []string{
		"executed: ldw kv_store+10 address depends on header arg1; stw kv_store+117 writes kvs_table, which ldw kv_store+10 reads before writing",
		"executed: ldw kv_store+10 address depends on header arg1",
	} {
		if got := exe.Explain(&nicsim.Request{LambdaID: w.ID, Payload: w.MakeRequest(i), Packets: 1}); got != want {
			t.Errorf("kv_store request %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestPaperSetNeverReplays: no lambda of the paper's benchmark set has a
// native reply function, and the proof rejects each of them anyway, so
// the section 6 experiments execute every request as before.
func TestPaperSetNeverReplays(t *testing.T) {
	for _, w := range DefaultSet() {
		if w.Spec.Native != nil {
			t.Errorf("%s has a native reply function", w.Name)
		}
		got, err := ExplainReplay(w)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(got, "executed: ") {
			t.Errorf("%s: %s", w.Name, got)
		}
	}
}
