package mcc

import (
	"testing"

	"lambdanic/internal/nicsim"
)

// benchProgram builds a representative lambda: header read, loop,
// memory traffic, emit.
func benchProgram(b *testing.B) *Executable {
	b.Helper()
	bd := NewBuilder("bench")
	bd.HdrGet(1, FieldArg0)
	bd.MovImm(2, 0)  // acc
	bd.MovImm(3, 32) // i
	bd.MovImm(4, 1)
	bd.Label("loop")
	bd.MovImm(5, 0)
	bd.Load(6, "buf", 5, 4)
	bd.Add(2, 2, 6)
	bd.Sub(3, 3, 4)
	bd.Brnz(3, "loop")
	bd.EmitByte(2)
	bd.Ret(2)
	p := NewProgram()
	if err := p.AddFunc(bd.MustBuild()); err != nil {
		b.Fatal(err)
	}
	if err := p.AddObject(&Object{Name: "buf", Size: 64, Level: nicsim.MemLocal}); err != nil {
		b.Fatal(err)
	}
	if err := p.AddEntry(1, "bench"); err != nil {
		b.Fatal(err)
	}
	exe, err := Link(p)
	if err != nil {
		b.Fatal(err)
	}
	return exe
}

func BenchmarkExecute(b *testing.B) {
	exe := benchProgram(b)
	req := &nicsim.Request{LambdaID: 1, Payload: []byte{1, 2, 3}, Packets: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		err := exe.ExecutePooled(req, func(resp nicsim.Response) {
			instr = resp.Stats.Instructions
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(instr), "instr/req")
}

func BenchmarkBulkGray(b *testing.B) {
	bd := NewBuilder("gray")
	bd.PktLen(2)
	bd.MovImm(1, 0)
	bd.MovImm(3, 0)
	bd.Gray("out", 3, PayloadObject, 1, 2)
	bd.Ret(2)
	p := NewProgram()
	if err := p.AddFunc(bd.MustBuild()); err != nil {
		b.Fatal(err)
	}
	if err := p.AddObject(&Object{Name: "out", Size: 1 << 16}); err != nil {
		b.Fatal(err)
	}
	if err := p.AddEntry(1, "gray"); err != nil {
		b.Fatal(err)
	}
	exe, err := Link(p)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64*1024)
	req := &nicsim.Request{LambdaID: 1, Payload: payload, Packets: 47}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exe.ExecutePooled(req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrayPixels converts a 512x512 RGBA image (1 MiB) one pixel
// at a time (the oracle) and a word at a time (GrayPixels).
func BenchmarkGrayPixels(b *testing.B) {
	const pixels = 512 * 512
	src := make([]byte, 4*pixels)
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, pixels)
	for _, k := range []struct {
		name string
		fn   func(dst, src []byte)
	}{{"oracle", grayOracle}, {"kernel", GrayPixels}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				k.fn(dst, src)
			}
		})
	}
}

func BenchmarkOptimizeAllPasses(b *testing.B) {
	p := buildBenchMatchProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Optimize(p, AllPasses()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticCheck(b *testing.B) {
	p := buildBenchMatchProgram(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := StaticCheck(p); len(v) != 0 {
			b.Fatal("unexpected violations")
		}
	}
}

// buildBenchMatchProgram adapts the test fixture for benchmarks.
func buildBenchMatchProgram(b *testing.B) *Program {
	b.Helper()
	p := NewProgram()
	add := func(f *Function) {
		if err := p.AddFunc(f); err != nil {
			b.Fatal(err)
		}
	}
	add(helperBody("helper_a", 200))
	add(helperBody("helper_b", 200))
	la := NewBuilder("lambda_a")
	la.Call("helper_a")
	la.Ret(0)
	lb := NewBuilder("lambda_b")
	lb.Call("helper_b")
	lb.Ret(0)
	add(la.MustBuild())
	add(lb.MustBuild())
	if err := p.AddEntry(1, "lambda_a"); err != nil {
		b.Fatal(err)
	}
	if err := p.AddEntry(2, "lambda_b"); err != nil {
		b.Fatal(err)
	}
	p.Match = &MatchPlan{
		Tables: []MatchTable{
			{Name: "ra", Field: FieldWorkloadID, Entries: []MatchEntry{{Value: 1, Action: "lambda_a"}}},
			{Name: "rb", Field: FieldWorkloadID, Entries: []MatchEntry{{Value: 2, Action: "lambda_b"}}},
		},
	}
	mf, err := GenerateMatch(p.Match)
	if err != nil {
		b.Fatal(err)
	}
	add(mf)
	return p
}
