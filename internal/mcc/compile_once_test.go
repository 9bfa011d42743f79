package mcc_test

import (
	"reflect"
	"sync"
	"testing"

	"lambdanic/internal/mcc"
	"lambdanic/internal/nicsim"
)

// lengthProgram is one lambda (ID 1) that never replays, as it has no
// native function, and touches no object, so concurrent requests share
// nothing: it returns the payload length plus 7.
func lengthProgram(t *testing.T) *mcc.Program {
	t.Helper()
	b := mcc.NewBuilder("length")
	b.PktLen(2)
	b.MovImm(3, 7)
	b.Add(2, 2, 3)
	b.Ret(2)
	p := mcc.NewProgram()
	if err := p.AddFunc(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEntry(1, "length"); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLinkDefersCompile: Link builds no closures, an interpreter image
// never builds them, and each entry into the compiled engine builds them
// once, on first use, concurrent first requests included.
func TestLinkDefersCompile(t *testing.T) {
	req := &nicsim.Request{LambdaID: 1, Payload: []byte("ping"), Packets: 1}
	linked := func(t *testing.T) *mcc.Executable {
		exe, err := mcc.Link(lengthProgram(t))
		if err != nil {
			t.Fatal(err)
		}
		if exe.Closures() != nil {
			t.Fatal("Link built closures")
		}
		return exe
	}

	t.Run("interp", func(t *testing.T) {
		exe, err := mcc.LinkInterp(lengthProgram(t))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exe.Serve(req); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := exe.RunStandalone("length", nil, nil); err != nil {
			t.Fatal(err)
		}
		if kind := exe.DispatchKind(); kind != "interp" || exe.Closures() != nil {
			t.Fatalf("interpreter image compiled (DispatchKind %q)", kind)
		}
	})

	uses := map[string]func(*mcc.Executable) error{
		"DispatchKind": func(e *mcc.Executable) error { e.DispatchKind(); return nil },
		"Fusion":       func(e *mcc.Executable) error { e.Fusion("length"); return nil },
		"RunStandalone": func(e *mcc.Executable) error {
			_, _, _, err := e.RunStandalone("length", []byte("ab"), nil)
			return err
		},
		"Serve": func(e *mcc.Executable) error { _, err := e.Serve(req); return err },
	}
	for name, use := range uses {
		t.Run(name, func(t *testing.T) {
			exe := linked(t)
			if err := use(exe); err != nil {
				t.Fatal(err)
			}
			first := exe.Closures()
			if first == nil {
				t.Fatalf("%s did not compile", name)
			}
			for other, use := range uses {
				if err := use(exe); err != nil {
					t.Fatal(err)
				}
				if exe.Closures() != first {
					t.Fatalf("%s after %s compiled again", other, name)
				}
			}
		})
	}

	t.Run("concurrent", func(t *testing.T) {
		exe := linked(t)
		const n = 8
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			resps [n]nicsim.Response
			errs  [n]error
		)
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resps[i], errs[i] = exe.Serve(req)
			}()
		}
		close(start)
		wg.Wait()
		for i := range n {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(resps[i], resps[0]) {
				t.Fatalf("goroutine %d served %+v, goroutine 0 %+v", i, resps[i], resps[0])
			}
		}
		first := exe.Closures()
		if first == nil {
			t.Fatal("concurrent Serve did not compile")
		}
		exe.DispatchKind()
		if exe.Closures() != first {
			t.Fatal("compiled again after the concurrent first requests")
		}
	})
}
