package workloads

import (
	"strings"
	"testing"

	"lambdanic/internal/nicsim"
)

// TestReplayVerdicts holds every workload constructor's replay decision
// and its reason, as lnicctl compile prints them. The sweeps, whose path
// ignores the request, replay keyed on the runtime library's init flag;
// the web server and the image transformer replay keyed on it and on the
// header fields they parse. The KV clients execute: their emit reads
// scratch bytes stored before a digit loop, and coverage does not cross
// the loop's back-edge.
func TestReplayVerdicts(t *testing.T) {
	sweep := "replayed: guard lib_state[0:8]"
	web := "replayed: guard lib_state[0:8]; key header arg0"
	for _, tc := range []struct {
		w    *Workload
		want string
	}{
		{BatchSweeper(), sweep},
		{BatchSweeperVariant("skew_svc", BatchSweepID, 12), sweep},
		{BatchSweeperVariant("bnd_heavy", 23, 8000), sweep},
		{WebServer(), web},
		{WebServerVariant("bnd_web", 21), web},
		{KVGetClient(), "executed: st kv_get_client+4 writes kvget_scratch, which emit kv_get_client+90 reads before writing"},
		{KVSetClient(), "executed: st kv_set_client+4 writes kvset_scratch, which emit kv_set_client+90 reads before writing"},
		{ImageTransformer(DefaultImageWidth, DefaultImageHeight), "replayed: guard lib_state[0:8]; key header arg0, arg1"},
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
		"executed: stw kv_store+117 writes kvs_table, which ldw kv_store+10 reads before writing",
		"executed: no native reply function",
	} {
		if got := exe.Explain(&nicsim.Request{LambdaID: w.ID, Payload: w.MakeRequest(i), Packets: 1}); got != want {
			t.Errorf("kv_store request %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestPaperSetReplays: of the paper's benchmark set the web server and
// the image transformer have native reply functions and replay; the KV
// clients have none and execute, so their section 6 results come from
// executions as before.
func TestPaperSetReplays(t *testing.T) {
	for _, w := range DefaultSet() {
		got, err := ExplainReplay(w)
		if err != nil {
			t.Fatal(err)
		}
		kv := w.ID == KVGetClientID || w.ID == KVSetClientID
		if (w.Spec.Native == nil) != kv || strings.HasPrefix(got, "replayed: ") == kv {
			t.Errorf("%s (native reply function: %v): %s", w.Name, w.Spec.Native != nil, got)
		}
	}
}
