// Microc: write a lambda in the restricted C-like source language (the
// paper's Micro-C, §4.1) instead of raw IR, compile it through the full
// pipeline — parser generation, match-stage composition, the three
// optimizer passes, static memory assertions — and run it on simulated
// SmartNIC firmware.
//
// The lambda is a tiny token-bucket rate limiter: each request spends
// one token; an empty bucket drops the request; tokens refill via an
// admin request — state that persists in NIC memory across requests
// (paper §4.1: "global objects that persist state across runs").
package main

import (
	"fmt"
	"os"

	"lambdanic"
)

const source = `
// Persistent token bucket in NIC memory.
object bucket[8];
object inited[8];

const ADMIN_REFILL = 255;
const CAPACITY = 3;

func rate_limiter() int {
	if (loadw(inited, 0) == 0) {
		storew(bucket, 0, CAPACITY);
		storew(inited, 0, 1);
	}
	var op int = hdr(7); // parsed request header: op byte

	if (op == ADMIN_REFILL) {
		storew(bucket, 0, CAPACITY);
		emitbyte('R');
		return STATUS_FORWARD;
	}

	var tokens int = loadw(bucket, 0);
	if (tokens == 0) {
		emitbyte('X');       // rate limited
		return STATUS_DROP;
	}
	storew(bucket, 0, tokens - 1);
	emitbyte('0' + tokens);  // tokens remaining before this request
	return STATUS_FORWARD;
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "microc:", err)
		os.Exit(1)
	}
}

func run() error {
	spec, err := lambdanic.CompileSource("rate_limiter", 200, "rate_limiter", source,
		[]string{"limreq"})
	if err != nil {
		return err
	}
	prog, err := lambdanic.Compose([]*lambdanic.LambdaSpec{spec}, lambdanic.ComposeOptions{
		Headers: []lambdanic.HeaderSpec{{
			Name:   "limreq",
			Fields: []lambdanic.FieldSpec{{Slot: lambdanic.FieldArg0, Offset: 0, Bytes: 1}},
		}},
	})
	if err != nil {
		return err
	}
	opt, passes, err := lambdanic.Optimize(prog, lambdanic.AllPasses())
	if err != nil {
		return err
	}
	fmt.Println("compiled from C-like source through the Match+Lambda pipeline:")
	for _, p := range passes {
		fmt.Printf("  %-24s %4d instructions\n", p.Pass, p.Instructions)
	}
	exe, err := lambdanic.Link(opt)
	if err != nil {
		return err
	}

	send := func(op byte) string {
		resp, err := exe.Execute(&lambdanic.NICRequest{
			LambdaID: 200, Payload: []byte{op}, Packets: 1,
		})
		if err != nil {
			return "error: " + err.Error()
		}
		return string(resp.Payload)
	}

	fmt.Println("five requests against a 3-token bucket:")
	for i := 0; i < 5; i++ {
		fmt.Printf("  request %d -> %q\n", i+1, send(0))
	}
	fmt.Printf("admin refill -> %q\n", send(255))
	fmt.Printf("request after refill -> %q\n", send(0))
	return nil
}
