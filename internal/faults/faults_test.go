package faults

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestJudgeRepeatable is the subsystem's core guarantee: the verdict
// schedule is a pure function of the seed, so two injectors with the
// same seed and rules produce identical fault schedules regardless of
// call interleaving.
func TestJudgeRepeatable(t *testing.T) {
	rules := []Rule{{Drop: 0.1, Dup: 0.05, Reorder: 0.08, Delay: time.Millisecond}}
	run := func(seed int64) []Verdict {
		inj := NewInjector(seed, rules...)
		out := make([]Verdict, 0, 2000)
		for i := 0; i < 1000; i++ {
			out = append(out, inj.Judge("a", "b"))
			out = append(out, inj.Judge("b", "a"))
		}
		return out
	}
	first := run(42)
	second := run(42)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("same seed produced different verdict schedules")
	}
	if reflect.DeepEqual(first, run(43)) {
		t.Fatal("different seeds produced identical verdict schedules")
	}
	var drops int
	for _, v := range first {
		if v.Drop {
			drops++
		}
	}
	if drops == 0 || drops == len(first) {
		t.Fatalf("drop rate 0.1 over %d packets yielded %d drops", len(first), drops)
	}
}

// TestJudgeInterleavingIndependent verifies verdicts on one link do not
// shift when traffic on another link is interleaved between calls —
// the property that makes concurrent runs reproducible.
func TestJudgeInterleavingIndependent(t *testing.T) {
	rules := []Rule{{Drop: 0.2}}
	solo := NewInjector(7, rules...)
	var want []Verdict
	for i := 0; i < 500; i++ {
		want = append(want, solo.Judge("a", "b"))
	}
	mixed := NewInjector(7, rules...)
	var got []Verdict
	for i := 0; i < 500; i++ {
		mixed.Judge("c", "d") // unrelated traffic
		got = append(got, mixed.Judge("a", "b"))
		mixed.Judge("d", "c")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("verdicts on a link changed when other links carried traffic")
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var inj *Injector
	if v := inj.Judge("a", "b"); v != (Verdict{}) {
		t.Fatalf("nil injector verdict = %+v, want clean", v)
	}
	inj.SetDown("a", true)
	if inj.IsDown("a") {
		t.Fatal("nil injector reports endpoint down")
	}
	inner := &recordConn{}
	if got := inj.WrapConn(inner, "a"); got != net.PacketConn(inner) {
		t.Fatal("nil injector did not return the wrapped conn unchanged")
	}
}

func TestRuleWindowAndLinkMatching(t *testing.T) {
	inj := NewInjector(1, Rule{From: "a", To: "b", FirstPacket: 2, LastPacket: 4, Partition: true})
	// Packets 0,1 pass; 2,3 partitioned; 4+ pass again.
	for i := 0; i < 6; i++ {
		v := inj.Judge("a", "b")
		want := i >= 2 && i < 4
		if v.Drop != want {
			t.Fatalf("packet %d: drop=%v, want %v", i, v.Drop, want)
		}
	}
	// Reverse direction is a different link: never matched.
	if v := inj.Judge("b", "a"); v.Drop {
		t.Fatal("one-way partition dropped reverse-direction traffic")
	}
	if v := inj.Judge("a", "c"); v.Drop {
		t.Fatal("rule for a→b matched a→c")
	}
}

func TestDownEndpointDropsBothDirections(t *testing.T) {
	inj := NewInjector(1)
	inj.SetDown("w1", true)
	if v := inj.Judge("w1", "gw"); !v.Drop {
		t.Fatal("downed sender not dropped")
	}
	if v := inj.Judge("gw", "w1"); !v.Drop {
		t.Fatal("traffic to downed endpoint not dropped")
	}
	inj.SetDown("w1", false)
	if v := inj.Judge("gw", "w1"); v.Drop {
		t.Fatal("restarted endpoint still dropping")
	}
}

// recordConn is a fake net.PacketConn capturing writes.
type recordConn struct {
	mu     sync.Mutex
	writes []string
}

func (c *recordConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, string(p))
	c.mu.Unlock()
	return len(p), nil
}

func (c *recordConn) got() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.writes...)
}

func (c *recordConn) ReadFrom(p []byte) (int, net.Addr, error) { select {} }
func (c *recordConn) Close() error                             { return nil }
func (c *recordConn) LocalAddr() net.Addr                      { return fakeAddr("rec") }
func (c *recordConn) SetDeadline(time.Time) error              { return nil }
func (c *recordConn) SetReadDeadline(time.Time) error          { return nil }
func (c *recordConn) SetWriteDeadline(time.Time) error         { return nil }

type fakeAddr string

func (a fakeAddr) Network() string { return "fake" }
func (a fakeAddr) String() string  { return string(a) }

func TestWrapConnDropDupReorder(t *testing.T) {
	dst := fakeAddr("b")

	// Partition: nothing reaches the wire, writes still report success.
	inner := &recordConn{}
	conn := NewInjector(1, Rule{Partition: true}).WrapConn(inner, "a")
	if n, err := conn.WriteTo([]byte("x"), dst); n != 1 || err != nil {
		t.Fatalf("dropped write returned (%d, %v)", n, err)
	}
	if w := inner.got(); len(w) != 0 {
		t.Fatalf("partitioned conn wrote %v", w)
	}

	// Duplication: every packet delivered twice.
	inner = &recordConn{}
	conn = NewInjector(1, Rule{Dup: 1}).WrapConn(inner, "a")
	conn.WriteTo([]byte("x"), dst)
	if w := inner.got(); len(w) != 2 || w[0] != "x" || w[1] != "x" {
		t.Fatalf("dup writes = %v, want [x x]", w)
	}

	// Reordering: first packet held, released behind the second.
	inner = &recordConn{}
	conn = NewInjector(1, Rule{FirstPacket: 0, LastPacket: 1, Reorder: 1}).WrapConn(inner, "a")
	conn.WriteTo([]byte("1"), dst)
	conn.WriteTo([]byte("2"), dst)
	if w := inner.got(); !reflect.DeepEqual(w, []string{"2", "1"}) {
		t.Fatalf("reordered writes = %v, want [2 1]", w)
	}
}

func TestWrapConnDelay(t *testing.T) {
	inner := &recordConn{}
	conn := NewInjector(1, Rule{Delay: 5 * time.Millisecond}).WrapConn(inner, "a")
	conn.WriteTo([]byte("x"), fakeAddr("b"))
	if w := inner.got(); len(w) != 0 {
		t.Fatal("delayed packet written immediately")
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(inner.got()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed packet never delivered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules("drop=0.05,dup=0.01,reorder=0.02,delay=2ms,from=a,to=b,first=10,last=20")
	if err != nil {
		t.Fatal(err)
	}
	want := Rule{From: "a", To: "b", FirstPacket: 10, LastPacket: 20,
		Drop: 0.05, Dup: 0.01, Reorder: 0.02, Delay: 2 * time.Millisecond}
	if len(rules) != 1 || rules[0] != want {
		t.Fatalf("ParseRules = %+v, want %+v", rules, want)
	}
	if rules, err := ParseRules("  "); err != nil || rules != nil {
		t.Fatalf("blank spec = (%v, %v), want (nil, nil)", rules, err)
	}
	if _, err := ParseRules("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseRules("drop"); err == nil {
		t.Fatal("term without value accepted")
	}
}

func TestTimelineSchedule(t *testing.T) {
	tl := &Timeline{Faults: []SimFault{
		{At: 20 * time.Microsecond, Kind: FaultNICRecover, Target: "w1"},
		{At: 10 * time.Microsecond, Kind: FaultNICCrash, Target: "w1"},
		{At: 15 * time.Microsecond, Kind: FaultDegrade, Target: "w2", Factor: 2},
		{At: 10 * time.Microsecond, Kind: FaultDegrade, Target: "w3", Factor: 2},
	}}
	var got []string
	for _, f := range tl.Sorted() {
		got = append(got, f.Kind.String()+"/"+f.Target)
	}
	want := []string{"nic-crash/w1", "degrade/w3", "degrade/w2", "nic-recover/w1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fault order = %v, want %v", got, want)
	}
}
