package mcl

import (
	"strings"
	"testing"
	"testing/quick"

	"lambdanic/internal/matchlambda"
	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
)

// compileAndLink compiles a source file with one entry function and
// links it as lambda ID 1.
func compileAndLink(t *testing.T, entry, src string) *mcc.Executable {
	t.Helper()
	spec, err := CompileLambda("test", 1, entry, src, nil)
	if err != nil {
		t.Fatalf("CompileLambda: %v", err)
	}
	p, err := matchlambda.Compose([]*matchlambda.LambdaSpec{spec}, matchlambda.ComposeOptions{})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	exe, err := mcc.Link(p)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return exe
}

// run executes the compiled lambda and returns status-ish payload.
func run(t *testing.T, exe *mcc.Executable, payload []byte) []byte {
	t.Helper()
	resp, err := exe.Execute(&nicsim.Request{LambdaID: 1, Payload: payload, Packets: 1})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return resp.Payload
}

func TestArithmeticAndEmit(t *testing.T) {
	exe := compileAndLink(t, "main", `
		func main() int {
			var a int = 6;
			var b int = 7;
			emitbyte(a * b);           // 42
			emitbyte((a + b) - 3);     // 10
			emitbyte(a << 2);          // 24
			emitbyte((a ^ b) & 15);    // 1
			return STATUS_FORWARD;
		}
	`)
	got := run(t, exe, nil)
	want := []byte{42, 10, 24, 1}
	if string(got) != string(want) {
		t.Errorf("output = %v, want %v", got, want)
	}
}

func TestWhileLoopAndComparison(t *testing.T) {
	exe := compileAndLink(t, "main", `
		func main() int {
			var i int = 0;
			var sum int = 0;
			while (i < 10) {
				sum = sum + i;
				i = i + 1;
			}
			emitbyte(sum); // 45
			return 1;
		}
	`)
	got := run(t, exe, nil)
	if len(got) != 1 || got[0] != 45 {
		t.Errorf("sum = %v, want 45", got)
	}
}

func TestIfElseChain(t *testing.T) {
	src := `
		func main() int {
			var x int = hdr(7);  // FieldArg0
			if (x == 0) { emitbyte('a'); }
			else if (x == 1) { emitbyte('b'); }
			else { emitbyte('c'); }
			return 1;
		}
	`
	exe := compileAndLink(t, "main", src)
	// hdr(7) is FieldArg0, populated by parsers; without headers it is
	// zero.
	if got := run(t, exe, nil); got[0] != 'a' {
		t.Errorf("branch = %q, want a", got)
	}
}

func TestBreakContinue(t *testing.T) {
	exe := compileAndLink(t, "main", `
		func main() int {
			var i int = 0;
			var acc int = 0;
			while (1) {
				i = i + 1;
				if (i == 3) { continue; }
				if (i > 5) { break; }
				acc = acc + i;
			}
			emitbyte(acc); // 1+2+4+5 = 12
			return 1;
		}
	`)
	if got := run(t, exe, nil); got[0] != 12 {
		t.Errorf("acc = %d, want 12", got[0])
	}
}

func TestDivModLowering(t *testing.T) {
	exe := compileAndLink(t, "main", `
		func main() int {
			emitbyte(47 / 5);   // 9
			emitbyte(47 % 5);   // 2
			emitbyte(0 / 3);    // 0
			emitbyte(200 % 7);  // 4
			return 1;
		}
	`)
	got := run(t, exe, nil)
	want := []byte{9, 2, 0, 4}
	if string(got) != string(want) {
		t.Errorf("div/mod = %v, want %v", got, want)
	}
}

func TestDivModMatchesGoProperty(t *testing.T) {
	exe := compileAndLink(t, "main", `
		func main() int {
			var a int = hdr(7);
			var b int = hdr(8);
			emitbyte(a / b);
			emitbyte(a % b);
			return 1;
		}
	`)
	f := func(a, b uint8) bool {
		if b == 0 {
			return true // divisor guard covered elsewhere
		}
		// Inject via RunStandalone to set header slots.
		status, out, _, err := exe.RunStandalone("main", nil, map[int]int64{
			mcc.FieldArg0: int64(a), mcc.FieldArg1: int64(b),
		})
		if err != nil || status != 1 || len(out) != 2 {
			return false
		}
		return out[0] == a/b && out[1] == a%b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestObjectsAndMemoryBuiltins(t *testing.T) {
	exe := compileAndLink(t, "main", `
		object buf[32] hot;
		object big[128];

		func main() int {
			buf[0] = 'H';
			buf[1] = 'i';
			storew(big, 0, 123456789);
			var v int = loadw(big, 0);
			if (v != 123456789) { return STATUS_DROP; }
			emit(buf, 0, 2);
			return STATUS_FORWARD;
		}
	`)
	if got := run(t, exe, nil); string(got) != "Hi" {
		t.Errorf("output = %q", got)
	}
}

func TestPayloadBuiltins(t *testing.T) {
	exe := compileAndLink(t, "main", `
		object scratch[64];

		func main() int {
			var n int = pktlen();
			if (n < 2) { return STATUS_DROP; }
			emitbyte(pkt(0) + pkt(1));
			memcpy(scratch, 0, pkt, 0, n);
			emit(scratch, 0, n);
			return STATUS_FORWARD;
		}
	`)
	got := run(t, exe, []byte{3, 4, 9})
	if len(got) != 4 || got[0] != 7 || got[1] != 3 || got[3] != 9 {
		t.Errorf("output = %v", got)
	}
}

func TestUserFunctionCallsAndHelpers(t *testing.T) {
	exe := compileAndLink(t, "main", `
		object state[8];

		func bump() {
			var v int = loadw(state, 0);
			storew(state, 0, v + 1);
		}

		func main() int {
			bump();
			bump();
			bump();
			emitbyte(loadw(state, 0));
			return 1;
		}
	`)
	if got := run(t, exe, nil); got[0] != 3 {
		t.Errorf("state = %d, want 3", got[0])
	}
}

func TestConstFoldingAndCharLiterals(t *testing.T) {
	exe := compileAndLink(t, "main", `
		const PAGE = 16 * 4;
		const MASK = (1 << 6) - 1;

		func main() int {
			emitbyte(PAGE & MASK);  // 0
			emitbyte(PAGE >> 2);    // 16
			emitbyte('A' + 1);      // 'B'
			emitbyte('\n');
			return 1;
		}
	`)
	got := run(t, exe, nil)
	want := []byte{0, 16, 'B', '\n'}
	if string(got) != string(want) {
		t.Errorf("output = %v, want %v", got, want)
	}
}

func TestHashBuiltin(t *testing.T) {
	exe := compileAndLink(t, "main", `
		object key[8];

		func main() int {
			key[0] = 'k';
			var h int = hash(key, 0, 8);
			if (h == 0) { return STATUS_DROP; }
			emitbyte(h & 255);
			return 1;
		}
	`)
	a := run(t, exe, nil)
	b := run(t, exe, nil)
	if len(a) != 1 || a[0] != b[0] {
		t.Errorf("hash unstable: %v vs %v", a, b)
	}
}

func TestLogicalOperators(t *testing.T) {
	exe := compileAndLink(t, "main", `
		func main() int {
			emitbyte(1 && 2);      // 1
			emitbyte(0 && 2);      // 0
			emitbyte(0 || 5);      // 1
			emitbyte(0 || 0);      // 0
			emitbyte(!3);          // 0
			emitbyte(!0);          // 1
			emitbyte(3 >= 3);      // 1
			emitbyte(2 <= 1);      // 0
			return 1;
		}
	`)
	got := run(t, exe, nil)
	want := []byte{1, 0, 1, 0, 0, 1, 1, 0}
	if string(got) != string(want) {
		t.Errorf("output = %v, want %v", got, want)
	}
}

func TestCommentsAndHexNumbers(t *testing.T) {
	exe := compileAndLink(t, "main", `
		// line comment
		/* block
		   comment */
		func main() int {
			emitbyte(0xFF & 0x2A); // hex
			return 1;
		}
	`)
	if got := run(t, exe, nil); got[0] != 0x2A {
		t.Errorf("hex = %#x", got[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"func main( {", `expected ")"`},
		{"object x[0];", "size must be positive"},
		{"func main() { var x int = ; }", "expected expression"},
		{"bogus", "expected object"},
		{"func main() { x = 1; }", "undeclared variable"},
		{"func main() { var x int = y; }", "undeclared identifier"},
		{"func main() { break; }", "break outside loop"},
		{"func main() { emit(nosuch, 0, 1); }", "must name an object"},
		{"func main() { hdr(1, 2); }", "expects 1 arguments"},
		{"func main() { var a int = nofn(); }", "unknown function"},
		{"func main() { var x int = 1; var x int = 2; }", "already declared"},
		{"func f() {} func f() {}", "duplicate function"},
		{"const C = 1; const C = 2;", "duplicate const"},
		{"const D = 1/0;", "division by zero"},
		{"func main() { /* unterminated", "unterminated"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%q) err = %v, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestRecursionRejectedAtLink(t *testing.T) {
	// The language has no recursion guard itself; the IR validator
	// rejects recursive call graphs (§3.1b).
	spec, err := CompileLambda("test", 1, "main", `
		func main() int { helper(); return 1; }
		func helper() { helper(); }
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = matchlambda.Compose([]*matchlambda.LambdaSpec{spec}, matchlambda.ComposeOptions{})
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Errorf("recursive program accepted: %v", err)
	}
}

func TestStaticAssertionsApplyToCompiledCode(t *testing.T) {
	// A constant out-of-bounds store in the source is caught by the
	// IR's compile-time assertions at link.
	spec, err := CompileLambda("test", 1, "main", `
		object tiny[4];
		func main() int {
			tiny[100] = 1;
			return 1;
		}
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := matchlambda.Compose([]*matchlambda.LambdaSpec{spec}, matchlambda.ComposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mcc.Link(p); err == nil {
		t.Error("statically out-of-bounds program linked")
	}
}

func TestCompileLambdaMissingEntry(t *testing.T) {
	if _, err := CompileLambda("x", 1, "main", `func other() {}`, nil); err == nil {
		t.Error("missing entry accepted")
	}
}

func TestWebServerInMCL(t *testing.T) {
	// A complete web-server lambda in the source language, the shape of
	// the paper's Listing 2.
	exe := compileAndLink(t, "web_server", `
		const PAGE_SIZE = 16;
		const PAGES = 3;

		object content[48] hot;
		object inited[8];

		func setup() {
			// First-request initialization of the page store.
			var p int = 0;
			while (p < PAGES) {
				var i int = 0;
				while (i < PAGE_SIZE) {
					content[p * PAGE_SIZE + i] = 'a' + p;
					i = i + 1;
				}
				p = p + 1;
			}
			storew(inited, 0, 1);
		}

		func web_server() int {
			if (loadw(inited, 0) == 0) { setup(); }
			var id int = hdr(7) % PAGES;
			emit(content, id * PAGE_SIZE, PAGE_SIZE);
			return STATUS_FORWARD;
		}
	`)
	status, out, _, err := exe.RunStandalone("web_server", nil, map[int]int64{mcc.FieldArg0: 4})
	if err != nil {
		t.Fatal(err)
	}
	if status != mcc.StatusForward {
		t.Errorf("status = %d", status)
	}
	// Page 4 % 3 = 1 -> sixteen 'b's.
	if len(out) != 16 || out[0] != 'b' || out[15] != 'b' {
		t.Errorf("page = %q", out)
	}
}

func TestParserNeverPanicsProperty(t *testing.T) {
	// Robustness: arbitrary source text must produce an error or a
	// parse tree, never a panic.
	f := func(src string) bool {
		_, _ = Compile(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParserHandlesTruncationsOfValidProgram(t *testing.T) {
	src := `
		object buf[16] hot;
		const N = 4;
		func main() int {
			var i int = 0;
			while (i < N) { buf[i] = i * 2; i = i + 1; }
			emit(buf, 0, N);
			return STATUS_FORWARD;
		}
	`
	for i := 0; i <= len(src); i++ {
		_, _ = Compile(src[:i]) // must not panic at any prefix
	}
}
